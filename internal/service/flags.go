package service

import (
	"flag"

	"gmsim/internal/topo"
)

// SpecFlags holds the experiment-spec command-line surface shared by
// cmd/barrierbench, cmd/sweep and the HTTP spec codec: one place defines
// the flag names, defaults and help text, so the CLIs and simd accept the
// identical spec vocabulary.
type SpecFlags struct {
	Topo       string
	Radix      int
	Nodes      int
	Dim        int
	FaultPlan  string
	Seed       int64
	Partitions int
}

// Spec flag names.
const (
	FlagTopo       = "topo"
	FlagRadix      = "radix"
	FlagNodes      = "nodes"
	FlagDim        = "dim"
	FlagFaultPlan  = "faultplan"
	FlagSeed       = "seed"
	FlagPartitions = "partitions"
)

// BindSpecFlags registers every experiment-spec flag on fs with the shared
// defaults and returns the value struct they fill.
func BindSpecFlags(fs *flag.FlagSet) *SpecFlags {
	sf := &SpecFlags{}
	fs.StringVar(&sf.Topo, FlagTopo, topo.Single.String(),
		"topology kind(s), comma-separated: single, twoswitch, star, clos2, clos3")
	fs.IntVar(&sf.Radix, FlagRadix, topo.DefaultRadix, "switch port count for multi-switch fabrics")
	fs.IntVar(&sf.Nodes, FlagNodes, 16, "cluster size (nodes)")
	fs.IntVar(&sf.Dim, FlagDim, 2, "GB tree dimension")
	fs.StringVar(&sf.FaultPlan, FlagFaultPlan, PlanNone,
		"fault plan: none, flap, corrupt, chaos, crash, partition")
	fs.Int64Var(&sf.Seed, FlagSeed, DefaultSeed, "fault plan seed")
	fs.IntVar(&sf.Partitions, FlagPartitions, 1,
		"engine partitions: >1 runs the conservative parallel engine (needs a multi-switch -topo)")
	return sf
}

// Kinds parses the -topo flag's comma-separated kind list.
func (sf *SpecFlags) Kinds() ([]topo.Kind, error) { return ParseKinds(sf.Topo) }

// FirstKind returns the first kind of the -topo list (the one single-
// fabric figures use).
func (sf *SpecFlags) FirstKind() (topo.Kind, error) {
	kinds, err := sf.Kinds()
	if err != nil {
		return 0, err
	}
	return kinds[0], nil
}

// Spec assembles a service spec from the bound flags plus the non-flag
// choices (barrier placement, algorithm, iteration counts) the caller
// makes. The result is not yet canonicalized.
func (sf *SpecFlags) Spec(level, alg string, warmup, iters int) Spec {
	kind := sf.Topo
	if kinds, err := sf.Kinds(); err == nil {
		kind = kinds[0].String()
	}
	return Spec{
		Topo:       kind,
		Radix:      sf.Radix,
		Nodes:      sf.Nodes,
		Level:      level,
		Alg:        alg,
		Dim:        sf.Dim,
		FaultPlan:  sf.FaultPlan,
		Seed:       sf.Seed,
		Partitions: sf.Partitions,
		Warmup:     warmup,
		Iters:      iters,
	}
}
