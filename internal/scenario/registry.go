package scenario

import (
	"fmt"
	"io"
	"os"

	"rcbcast/internal/topology"
)

// Named couples a registry name with its scenario and a one-line
// summary for CLI listings.
type Named struct {
	Name     string
	Summary  string
	Scenario Scenario
}

// paperPool is the E3 convention for "Carol respects the paper's
// budget": the Lemma-11 pooled budget with leading constant 1 and every
// device Byzantine (f = 1).
var paperPool = BudgetSpec{ModelC: 1, ModelF: 1}

// named is the ordered scenario registry: every attack the paper
// analyzes (§§2–4), the §4.1 defence, and composite attacks. Scenarios
// omit N, K and Seed — callers scale them (the CLIs fill them from
// flags, the experiments from their sweep configuration).
var named = []Named{
	{"benign", "no adversary — the baseline run",
		Scenario{Adversary: AdversarySpec{Kind: "null"}}},
	{"full-jam", "jam everything until the paper-scale pool drains (Theorem 1)",
		Scenario{Adversary: AdversarySpec{Kind: "full"}, Budget: paperPool}},
	{"random-jam", "jam each slot with probability 0.5",
		Scenario{Adversary: AdversarySpec{Kind: "random", P: 0.5}, Budget: paperPool}},
	{"bursty", "rate-limited bursts of 32 jammed / 32 silent slots (§1.2)",
		Scenario{Adversary: AdversarySpec{Kind: "bursty", Burst: 32, Gap: 32}, Budget: paperPool}},
	{"inform-blocker", "block inform phases while affordable (Lemma 10)",
		Scenario{Adversary: AdversarySpec{Kind: "blocker", Inform: true}, Budget: paperPool}},
	{"inform+prop-blocker", "block inform and propagation phases (Lemma 10)",
		Scenario{Adversary: AdversarySpec{Kind: "blocker", Inform: true, Propagate: true}, Budget: paperPool}},
	{"request-blocker", "block request phases to stall termination (§2.2)",
		Scenario{Adversary: AdversarySpec{Kind: "blocker", Request: true}, Budget: paperPool}},
	{"partition-5%", "strand 5% of the nodes, inform the rest (§2.3)",
		Scenario{Adversary: AdversarySpec{Kind: "partition", Strand: 0.05}}},
	{"nack-spoofer", "forge NACKs so the channel never goes quiet (§2.2)",
		Scenario{Adversary: AdversarySpec{Kind: "spoofer", P: 0.5}, Budget: paperPool}},
	{"data-spoofer", "inject forged copies of m that fail authentication",
		Scenario{Adversary: AdversarySpec{Kind: "data-spoofer", P: 0.25}, Budget: paperPool}},
	{"sweep", "rotate a half-phase jamming window across rounds",
		Scenario{Adversary: AdversarySpec{Kind: "sweep", Fraction: 0.5}, Budget: paperPool}},
	{"greedy-adaptive", "history-driven: jam whichever phase kind hurts most",
		Scenario{Adversary: AdversarySpec{Kind: "greedy"}, Budget: paperPool}},
	{"blocker+spoofer", "composite: phase blocking plus NACK spoofing",
		Scenario{Adversary: AdversarySpec{Kind: "composite", Parts: []AdversarySpec{
			{Kind: "blocker", Inform: true, Propagate: true},
			{Kind: "spoofer", P: 0.3},
		}}, Budget: paperPool}},
	{"jam+spoof", "composite: full jamming plus forged data frames",
		Scenario{Adversary: AdversarySpec{Kind: "composite", Parts: []AdversarySpec{
			{Kind: "full"},
			{Kind: "data-spoofer", P: 0.25},
		}}, Budget: paperPool}},
	{"reactive", "RSSI-sensing jammer hitting exactly the used slots (§4.1)",
		Scenario{Adversary: AdversarySpec{Kind: "reactive"},
			Overrides: Overrides{ExtraRounds: 6}}},
	{"reactive-decoy", "reactive jammer vs the decoy defence, Lemma-19 pool (f = 1/25)",
		Scenario{Adversary: AdversarySpec{Kind: "reactive"}, Decoy: true,
			Budget:    BudgetSpec{ModelC: 8, ModelF: 1.0 / 25},
			Overrides: Overrides{ExtraRounds: 8}}},
	{"budgeted-partition", "stranding attack under the paper's pooled budget, bounded rounds",
		Scenario{Adversary: AdversarySpec{Kind: "partition", Strand: 0.05, Rounds: 4},
			Budget:    BudgetSpec{ModelC: 8, ModelF: 1},
			Overrides: Overrides{ExtraRounds: 4}}},
	{"budgeted-full", "full jammer with the paper's device budgets enforced (C = 8)",
		Scenario{Adversary: AdversarySpec{Kind: "full"},
			Budget: BudgetSpec{ModelC: 8, ModelF: 1, DeviceC: 8}}},
	// Topology scenarios bound their rounds (ApplyTopology's default):
	// on a sparse graph the nodes beyond Alice's k-hop reach hear their
	// neighbors' NACKs forever and never pass the quiet test, so an
	// unbounded run only grinds to the natural round limit (DESIGN.md
	// §9).
	{"grid-wave", "broadcast wave on a lattice: delivery is Alice's k-hop ball (§9 topology layer)",
		Scenario{Topology: topology.Spec{Kind: "grid"},
			Overrides: Overrides{ExtraRounds: SparseTopologyExtraRounds}}},
	{"gilbert-jam", "random-geometric channel (Gilbert graph, r=0.25) under random jamming (E13)",
		Scenario{Topology: topology.Spec{Kind: "gilbert", Radius: 0.25},
			Adversary: AdversarySpec{Kind: "random", P: 0.5}, Budget: paperPool,
			Overrides: Overrides{ExtraRounds: SparseTopologyExtraRounds}}},
}

// All returns the named scenarios in registry order. Entries are deep
// copies: callers may mutate them freely.
func All() []Named {
	out := make([]Named, len(named))
	for i, e := range named {
		e.Scenario.Adversary = e.Scenario.Adversary.clone()
		out[i] = e
	}
	return out
}

// Names returns the registry names in order.
func Names() []string {
	out := make([]string, len(named))
	for i, e := range named {
		out[i] = e.Name
	}
	return out
}

// Lookup returns a deep copy of the named scenario (mutating it cannot
// corrupt the registry). Callers must still set N (and usually K and
// Seed) before running.
func Lookup(name string) (Scenario, bool) {
	for _, e := range named {
		if e.Name == name {
			sc := e.Scenario
			sc.Name = name
			sc.Adversary = sc.Adversary.clone()
			return sc, true
		}
	}
	return Scenario{}, false
}

// Load resolves a CLI -scenario argument: a registry name, or the path
// of a JSON scenario file (Decode).
func Load(arg string) (Scenario, error) {
	if sc, ok := Lookup(arg); ok {
		return sc, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return Scenario{}, fmt.Errorf("unknown scenario %q: not a registry name (-list-scenarios) and not a readable JSON file: %w", arg, err)
	}
	return Decode(data)
}

// WriteList renders the named-scenario registry and the adversary-kind
// registry as the listing both CLIs print for -list-scenarios.
func WriteList(w io.Writer) {
	fmt.Fprintln(w, "named scenarios (-scenario NAME; scale with -n/-k/-seed):")
	for _, e := range named {
		fmt.Fprintf(w, "  %-20s %s\n", e.Name, e.Summary)
	}
	fmt.Fprintln(w, "\nadversary kinds (-adversary KIND[:KNOB=V,...], compose with +):")
	for _, k := range Kinds() {
		knobs := ""
		if k.Knobs != "" {
			knobs = " [" + k.Knobs + "]"
		}
		fmt.Fprintf(w, "  %-14s %s%s\n", k.Name, k.Summary, knobs)
	}
}
