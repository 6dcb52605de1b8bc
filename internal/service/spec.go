// Package service is the simulation-as-a-service layer: a spec codec that
// canonicalizes and content-addresses experiment descriptions, an LRU
// result cache with a byte budget, a bounded job queue with per-client
// fairness, and the HTTP server that cmd/simd mounts.
//
// Every simulation in this repository is bit-deterministic, so a run is a
// pure function of its canonical spec. The codec exploits that twice:
// equivalent specs (field order, omitted defaults, legacy spellings)
// canonicalize to identical bytes and therefore identical SHA-256 hashes,
// and a cached result for a hash is byte-identical to re-running the
// simulation — a cache hit never re-simulates. The CLIs (cmd/barrierbench,
// cmd/sweep) bind their experiment flags through the same codec, so the
// command line and the HTTP API accept the identical spec.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"gmsim/internal/cluster"
	"gmsim/internal/experiments"
	"gmsim/internal/fault"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/sim"
	"gmsim/internal/topo"
)

// Spec is the wire form of one simulation request: everything that picks
// the experiment — topology, barrier kind and placement, cluster size,
// fault plan, seed, engine partitioning, iteration counts. The zero value
// of every field means "default"; Canonicalize fills defaults explicitly
// and zeroes ignored fields, so any two equivalent specs marshal to the
// same canonical JSON and the same hash.
type Spec struct {
	// Topo is the switch fabric kind: single, twoswitch, star, clos2,
	// clos3. Empty means single (the paper's one crossbar).
	Topo string `json:"topo"`
	// Radix is the switch port count for multi-switch fabrics; 0 means
	// topo.DefaultRadix. Ignored (canonically 0) on single, whose crossbar
	// is sized to the node count.
	Radix int `json:"radix"`
	// Nodes is the cluster size; required, >= 2.
	Nodes int `json:"nodes"`
	// NIC is the card model: "4.3" (default) or "7.2".
	NIC string `json:"nic"`
	// Level places the barrier: "nic" (default) or "host". Fail-stop plans
	// (crash, partition) always run the NIC barrier, so for them it is
	// canonically "nic".
	Level string `json:"level"`
	// Alg is the barrier algorithm: "pe" (default) or "gb".
	Alg string `json:"alg"`
	// Dim is the GB tree dimension, 1..Nodes-1; 0 means 2. Ignored
	// (canonically 0) for PE.
	Dim int `json:"dim"`
	// TopoAware maps the GB tree onto the switch topology (ignored, and
	// canonically false, for PE and for fail-stop plans, which run the
	// flat tree).
	TopoAware bool `json:"topo_aware"`
	// FaultPlan names the fault schedule: none (default), flap, corrupt,
	// chaos, crash, partition — the same vocabulary as the CLIs' -faultplan
	// (see NamedPlan). Any plan other than none runs the reliable barrier;
	// crash and partition also enable failure detection and run as a
	// checked scenario.
	FaultPlan string `json:"fault_plan"`
	// Seed roots the fault plan's random streams; 0 means 42 (the CLI
	// default). Ignored (canonically 0) when FaultPlan is none.
	Seed int64 `json:"seed"`
	// Partitions > 1 runs the conservative parallel engine with that many
	// fabric partitions; 0 or 1 (canonical) is the serial engine.
	Partitions int `json:"partitions"`
	// Warmup and Iters are the untimed and timed barrier counts; 0 means
	// 5 and experiments.DefaultIters.
	Warmup int `json:"warmup"`
	Iters  int `json:"iters"`
}

// DefaultSeed is the fault-plan seed filled in when a faulted spec leaves
// Seed zero — the same default the CLIs use.
const DefaultSeed = 42

// Fault plan names accepted by NamedPlan and Spec.FaultPlan.
const (
	PlanNone      = "none"
	PlanFlap      = "flap"
	PlanCorrupt   = "corrupt"
	PlanChaos     = "chaos"
	PlanCrash     = "crash"
	PlanPartition = "partition"
)

// PlanNames lists the accepted fault plan names.
func PlanNames() []string {
	return []string{PlanNone, PlanFlap, PlanCorrupt, PlanChaos, PlanCrash, PlanPartition}
}

// FailStop reports whether the named plan contains fail-stop faults, which
// run as checked scenarios (survivors complete degraded) rather than plain
// measurements.
func FailStop(plan string) bool { return plan == PlanCrash || plan == PlanPartition }

// Canonicalize validates the spec and returns its canonical form: string
// fields lowercased and defaulted, ignored fields zeroed, iteration counts
// filled. Two specs describing the same simulation canonicalize to equal
// values (and so equal hashes); an unsatisfiable spec returns an error.
// The canonical form is fully validated: the topology builds, the fault
// plan attaches, and a partitioned engine has the leaf switches it needs.
func (s Spec) Canonicalize() (Spec, error) {
	c := s
	c.Topo = strings.ToLower(strings.TrimSpace(c.Topo))
	if c.Topo == "" {
		c.Topo = topo.Single.String()
	}
	kind, err := topo.ParseKind(c.Topo)
	if err != nil {
		return c, fmt.Errorf("spec: %w", err)
	}
	c.Topo = kind.String()
	if c.Nodes < 2 {
		return c, fmt.Errorf("spec: need at least 2 nodes, have %d", c.Nodes)
	}
	if kind == topo.Single {
		// The single crossbar is sized to the node count; radix is noise.
		c.Radix = 0
	} else if c.Radix == 0 {
		c.Radix = topo.DefaultRadix
	}

	c.NIC = strings.TrimSpace(c.NIC)
	switch strings.ToLower(c.NIC) {
	case "", "4.3", "lanai 4.3", "lanai4.3":
		c.NIC = "4.3"
	case "7.2", "lanai 7.2", "lanai7.2":
		c.NIC = "7.2"
	default:
		return c, fmt.Errorf("spec: unknown NIC model %q (4.3, 7.2)", c.NIC)
	}

	c.Level = strings.ToLower(strings.TrimSpace(c.Level))
	switch c.Level {
	case "":
		c.Level = "nic"
	case "nic", "host":
	default:
		return c, fmt.Errorf("spec: unknown level %q (nic, host)", c.Level)
	}

	c.Alg = strings.ToLower(strings.TrimSpace(c.Alg))
	switch c.Alg {
	case "":
		c.Alg = "pe"
	case "pe", "gb":
	default:
		return c, fmt.Errorf("spec: unknown barrier algorithm %q (pe, gb)", c.Alg)
	}
	if c.Alg == "pe" {
		// PE has no tree: dimension and tree mapping are meaningless and
		// must not split the cache key.
		c.Dim = 0
		c.TopoAware = false
	} else {
		if c.Dim == 0 {
			c.Dim = 2
		}
		if c.Dim < 1 || c.Dim >= c.Nodes {
			return c, fmt.Errorf("spec: GB dimension %d out of range [1,%d]", c.Dim, c.Nodes-1)
		}
	}

	c.FaultPlan = strings.ToLower(strings.TrimSpace(c.FaultPlan))
	if c.FaultPlan == "" {
		c.FaultPlan = PlanNone
	}
	if _, err := NamedPlan(c.FaultPlan, 1, c.Nodes); err != nil {
		return c, err
	}
	if c.FaultPlan == PlanNone {
		c.Seed = 0
	} else if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if FailStop(c.FaultPlan) {
		// Fail-stop plans run the checked NIC barrier over the flat tree:
		// placement and tree mapping must not split the cache key.
		c.Level = "nic"
		c.TopoAware = false
	}

	if c.Partitions < 1 {
		c.Partitions = 1
	}
	if c.Warmup == 0 {
		c.Warmup = 5
	}
	if c.Warmup < 0 {
		return c, fmt.Errorf("spec: negative warmup %d", c.Warmup)
	}
	if c.Iters == 0 {
		c.Iters = experiments.DefaultIters
	}
	if c.Iters < 1 {
		return c, fmt.Errorf("spec: need at least 1 timed iteration, have %d", c.Iters)
	}

	cfg, err := c.Config()
	if err != nil {
		return c, err
	}
	if err := cfg.Validate(); err != nil {
		return c, fmt.Errorf("spec: %w", err)
	}
	return c, nil
}

// CanonicalJSON canonicalizes the spec and marshals it with every field
// explicit, in fixed declaration order — the byte string the cache key
// hashes.
func (s Spec) CanonicalJSON() ([]byte, error) {
	c, err := s.Canonicalize()
	if err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// Hash returns the spec's content address: the hex SHA-256 of its
// canonical JSON. Equivalent specs hash identically; any change to the
// canonical form (a new field, a different default) changes hashes and is
// pinned by the golden-file test.
func (s Spec) Hash() (string, error) {
	b, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// NamedPlan builds the named fault plan for an n-node cluster — the shared
// vocabulary of the CLIs' -faultplan flag and the HTTP spec's fault_plan
// field:
//
//	none      no faults (nil plan)
//	flap      one 300µs outage of the last node's cable at t=500µs
//	corrupt   0.5% bit errors and 0.5% truncation on every link
//	chaos     corruption + duplicates + the flap + a NIC stall
//	crash     node n/2 fail-stops at t=700µs
//	partition node n/2's cable is permanently cut at t=700µs
func NamedPlan(name string, seed int64, n int) (*fault.Plan, error) {
	last := network.NodeID(n - 1)
	victim := network.NodeID(n / 2)
	switch name {
	case PlanNone, "":
		return nil, nil
	case PlanFlap:
		return &fault.Plan{Seed: seed, Flaps: []fault.Flap{{
			Links:  fault.NodeLinks(last),
			DownAt: sim.FromMicros(500),
			UpAt:   sim.FromMicros(800),
		}}}, nil
	case PlanCorrupt:
		return &fault.Plan{Seed: seed, Corrupt: []fault.CorruptRule{
			{Links: fault.AllLinks(), Window: fault.Always, Rate: 0.005},
			{Links: fault.AllLinks(), Window: fault.Always, Rate: 0.005, Truncate: true},
		}}, nil
	case PlanChaos:
		return &fault.Plan{
			Seed: seed,
			Corrupt: []fault.CorruptRule{
				{Links: fault.AllLinks(), Window: fault.Always, Rate: 0.005},
				{Links: fault.AllLinks(), Window: fault.Always, Rate: 0.005, Truncate: true},
			},
			Duplicate: []fault.DupRule{{Links: fault.AllLinks(), Window: fault.Always, Rate: 0.005}},
			Flaps: []fault.Flap{{
				Links:  fault.NodeLinks(last),
				DownAt: sim.FromMicros(500),
				UpAt:   sim.FromMicros(800),
			}},
			Stalls: []fault.Stall{{Node: 0, At: sim.FromMicros(1500), For: sim.FromMicros(100)}},
		}, nil
	case PlanCrash:
		return &fault.Plan{Seed: seed, Crashes: []fault.Crash{{Node: victim, At: sim.FromMicros(700)}}}, nil
	case PlanPartition:
		return &fault.Plan{Seed: seed, Cuts: []fault.Cut{{Links: fault.NodeLinks(victim), At: sim.FromMicros(700)}}}, nil
	default:
		return nil, fmt.Errorf("unknown fault plan %q (%s)", name, strings.Join(PlanNames(), ", "))
	}
}

// Config builds the cluster configuration a canonical spec describes.
// Zero-fault serial specs map bit-identically onto the Figure 5 testbeds
// (cluster.DefaultConfig / LANai72Config); faulted specs run the reliable
// barrier, and fail-stop plans additionally enable failure detection with
// the chaos fleet's firmware timeouts.
func (s Spec) Config() (cluster.Config, error) {
	kind, err := topo.ParseKind(s.Topo)
	if err != nil {
		return cluster.Config{}, fmt.Errorf("spec: %w", err)
	}
	var cfg cluster.Config
	switch s.NIC {
	case "7.2":
		cfg = cluster.LANai72Config(s.Nodes)
	default:
		cfg = cluster.DefaultConfig(s.Nodes)
	}
	if kind != topo.Single {
		tc := experiments.TopoConfig(kind, s.Nodes, s.Radix)
		cfg.Switch = tc.Switch
		cfg.Topology = tc.Topology
	}
	if s.Partitions > 1 {
		cfg.Partitions = s.Partitions
	}
	plan, err := NamedPlan(s.FaultPlan, s.Seed, s.Nodes)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg.Fault = plan
	if s.FaultPlan != PlanNone {
		cfg.ReliableBarrier = true
	}
	if FailStop(s.FaultPlan) {
		cfg.DetectFailures = true
		cfg.Firmware = experiments.DetectionFirmware()
	}
	return cfg, nil
}

// Experiment converts a canonical spec into the experiments harness's
// measurement spec — the exact value a one-shot CLI run would measure,
// which is what makes service results bit-comparable to serial runs.
func (s Spec) Experiment() (experiments.Spec, error) {
	cfg, err := s.Config()
	if err != nil {
		return experiments.Spec{}, err
	}
	level := experiments.NICLevel
	if s.Level == "host" {
		level = experiments.HostLevel
	}
	alg := mcp.PE
	if s.Alg == "gb" {
		alg = mcp.GB
	}
	return experiments.Spec{
		Cluster:   cfg,
		Level:     level,
		Alg:       alg,
		Dim:       s.Dim,
		TopoAware: s.TopoAware,
		Warmup:    s.Warmup,
		Iters:     s.Iters,
	}, nil
}

// ParseKinds parses a comma-separated topology kind list ("single,clos3")
// — the shared parser behind the CLIs' -topo flag.
func ParseKinds(s string) ([]topo.Kind, error) {
	var out []topo.Kind
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := topo.ParseKind(part)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty topology list")
	}
	return out, nil
}
