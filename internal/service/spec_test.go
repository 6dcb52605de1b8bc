package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gmsim/internal/experiments"
)

// TestCanonicalizeDefaults: the minimal spec fills every default
// explicitly — the Figure 5 16-node testbed.
func TestCanonicalizeDefaults(t *testing.T) {
	c, err := Spec{Nodes: 16}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Topo: "single", Radix: 0, Nodes: 16, NIC: "4.3",
		Level: "nic", Alg: "pe", Dim: 0, TopoAware: false,
		FaultPlan: "none", Seed: 0, Partitions: 1,
		Warmup: 5, Iters: experiments.DefaultIters,
	}
	if c != want {
		t.Fatalf("canonical form:\n got %+v\nwant %+v", c, want)
	}
}

// TestCanonicalEquivalence: specs that describe the same simulation in
// different spellings hash identically — explicit defaults, case and
// legacy NIC names, and fields the chosen algorithm or fault plan ignores.
func TestCanonicalEquivalence(t *testing.T) {
	groups := []struct {
		base     Spec
		variants map[string]Spec
	}{
		{Spec{Nodes: 16}, map[string]Spec{
			"explicit defaults": {
				Topo: "single", Nodes: 16, NIC: "4.3", Level: "nic",
				Alg: "pe", FaultPlan: "none", Partitions: 1,
				Warmup: 5, Iters: experiments.DefaultIters,
			},
			"shouting":        {Topo: "SINGLE", Nodes: 16, NIC: "4.3", Level: "NIC", Alg: "PE"},
			"legacy nic name": {Nodes: 16, NIC: "LANai 4.3"},
			// PE ignores the GB tree shape; single ignores radix. Neither
			// may split the cache key.
			"ignored fields": {Nodes: 16, Alg: "pe", Dim: 7, TopoAware: true, Radix: 32},
			// A plan of none has no random streams, so the seed is noise.
			"seed without plan": {Nodes: 16, FaultPlan: "none", Seed: 999},
		}},
		// Fail-stop plans run the NIC barrier over the flat tree whatever
		// the spec asks for, so placement and tree mapping are noise too.
		{Spec{Nodes: 16, Alg: "gb", FaultPlan: "crash"}, map[string]Spec{
			"host level":   {Nodes: 16, Alg: "gb", FaultPlan: "crash", Level: "host"},
			"topo aware":   {Nodes: 16, Alg: "gb", FaultPlan: "crash", Level: "nic", TopoAware: true},
			"explicit NIC": {Nodes: 16, Alg: "gb", FaultPlan: "crash", Level: "nic"},
		}},
	}
	for _, g := range groups {
		wantHash, err := g.base.Hash()
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range g.variants {
			h, err := v.Hash()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if h != wantHash {
				t.Errorf("%s: hash %s, want %s", name, h, wantHash)
			}
		}
	}
}

// TestCanonicalJSONFieldOrder: wire specs with fields in any order decode
// and re-encode to the same canonical bytes.
func TestCanonicalJSONFieldOrder(t *testing.T) {
	bodies := []string{
		`{"nodes": 8, "alg": "gb", "dim": 3}`,
		`{"dim": 3, "alg": "gb", "nodes": 8}`,
		`{"alg": "gb", "nodes": 8, "dim": 3, "topo": "single", "level": "nic"}`,
	}
	var want []byte
	for i, body := range bodies {
		var s Spec
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		got, err := s.CanonicalJSON()
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if i == 0 {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Errorf("body %d canonicalizes to %s, want %s", i, got, want)
		}
	}
}

// TestCanonicalizeFills: non-default paths fill their own defaults — GB
// dimension, fault seed, radix on multi-switch fabrics.
func TestCanonicalizeFills(t *testing.T) {
	c, err := Spec{Nodes: 8, Alg: "GB"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Alg != "gb" || c.Dim != 2 {
		t.Errorf("GB defaults: alg %q dim %d, want gb 2", c.Alg, c.Dim)
	}
	c, err = Spec{Nodes: 8, FaultPlan: "flap"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != DefaultSeed {
		t.Errorf("faulted spec seed %d, want %d", c.Seed, DefaultSeed)
	}
	c, err = Spec{Nodes: 32, Topo: "star"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Radix == 0 {
		t.Error("multi-switch spec should fill the default radix")
	}
}

// TestCanonicalizeRejects: unsatisfiable specs error instead of hashing.
func TestCanonicalizeRejects(t *testing.T) {
	bad := map[string]Spec{
		"no nodes":        {},
		"one node":        {Nodes: 1},
		"bad topo":        {Nodes: 16, Topo: "hypercube"},
		"bad nic":         {Nodes: 16, NIC: "9.9"},
		"bad level":       {Nodes: 16, Level: "switch"},
		"bad alg":         {Nodes: 16, Alg: "butterfly"},
		"gb dim too big":  {Nodes: 8, Alg: "gb", Dim: 8},
		"bad fault plan":  {Nodes: 16, FaultPlan: "meteor"},
		"negative warmup": {Nodes: 16, Warmup: -1},
		"negative iters":  {Nodes: 16, Iters: -5},
		// The serial single crossbar has no switch boundary to partition.
		"partitioned single": {Nodes: 16, Partitions: 2},
	}
	for name, s := range bad {
		if _, err := s.Canonicalize(); err == nil {
			t.Errorf("%s: canonicalized without error", name)
		}
	}
}

// TestGoldenFigure5Hash pins the content address of the paper's headline
// experiment. If this golden file changes, every cached result in every
// deployed simd is invalidated: bump it only with a deliberate spec-format
// change, never as a test fix.
func TestGoldenFigure5Hash(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "figure5_16node.hash"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	got, err := Spec{Nodes: 16}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("16-node Figure 5 spec hashes to %s, golden file says %s", got, want)
	}
}

// TestNamedPlanVocabulary: every advertised plan name builds (or is nil
// for none), and FailStop splits them correctly.
func TestNamedPlanVocabulary(t *testing.T) {
	for _, name := range PlanNames() {
		p, err := NamedPlan(name, DefaultSeed, 16)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if (p == nil) != (name == PlanNone) {
			t.Errorf("%s: plan nil=%v", name, p == nil)
		}
	}
	if FailStop(PlanFlap) || !FailStop(PlanCrash) || !FailStop(PlanPartition) {
		t.Error("FailStop misclassifies the plan vocabulary")
	}
	if _, err := NamedPlan("meteor", 1, 16); err == nil {
		t.Error("unknown plan name accepted")
	}
}
