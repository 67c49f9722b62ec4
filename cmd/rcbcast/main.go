// Command rcbcast runs a single ε-BROADCAST simulation and prints the
// outcome: delivery, latency, per-device costs, and the adversary's spend.
//
// Runs are described by declarative scenarios (internal/scenario): pick a
// named one, load a JSON file, or assemble one from flags.
//
// Usage:
//
//	rcbcast [flags]
//
//	-scenario full-jam      run a named scenario (see -list-scenarios)
//	-scenario file.json     ... or a scenario from a JSON file
//	-list-scenarios         list named scenarios and adversary kinds
//	-dump-scenario          print the resolved scenario as JSON and exit
//
//	-n 1024                 correct nodes
//	-k 2                    protocol parameter k >= 2
//	-seed 1                 RNG seed
//	-adversary full         adversary spec: KIND[:KNOB=V,...], composed
//	                        with + (e.g. random:p=0.3, blocker:inform,prop,
//	                        blocker:inform+spoofer:p=0.3)
//	-topology clique        topology spec: clique | grid[:w=,reach=] |
//	                        gilbert:r= (see -list-topologies)
//	-list-topologies        list topology kinds and their knobs
//	-pool 16384             adversary energy pool (0 = unlimited)
//	-decoy                  enable the §4.1 decoy defence
//	-engine fast            fast | actors
//	-phases                 print the per-phase trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rcbcast/internal/engine"
	"rcbcast/internal/scenario"
	"rcbcast/internal/topology"
	"rcbcast/internal/trace"
	"rcbcast/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rcbcast:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rcbcast", flag.ContinueOnError)
	var (
		scn     = fs.String("scenario", "", "named scenario or JSON scenario file (flags override its fields)")
		list    = fs.Bool("list-scenarios", false, "list named scenarios and adversary kinds")
		dump    = fs.Bool("dump-scenario", false, "print the resolved scenario as JSON and exit")
		n       = fs.Int("n", 1024, "number of correct nodes")
		k       = fs.Int("k", 2, "protocol parameter k >= 2")
		seed    = fs.Uint64("seed", 1, "RNG seed")
		adv     = fs.String("adversary", "full", "adversary spec KIND[:KNOB=V,...], composed with +")
		topo    = fs.String("topology", "", "topology spec KIND[:KNOB=V,...] (default clique; see -list-topologies)")
		listTop = fs.Bool("list-topologies", false, "list topology kinds and their knobs")
		pool    = fs.Int64("pool", 1<<14, "adversary energy pool (0 = unlimited)")
		jamP    = fs.Float64("jam-p", 0.5, "per-slot probability for -adversary random")
		strand  = fs.Float64("strand", 0.05, "stranded fraction for -adversary partition")
		decoy   = fs.Bool("decoy", false, "enable the §4.1 decoy defence")
		eng     = fs.String("engine", "fast", "fast|actors")
		phases  = fs.Bool("phases", false, "print the per-phase trace")
		traceTo = fs.String("trace", "", "write an event trace: 'text' or 'json' to stdout, or a .ndjson file path")
		paper   = fs.Bool("paper", false, "use PaperParams instead of PracticalParams")
		budgets = fs.Bool("budgets", false, "enforce the paper's device budgets (C=8)")
		showVer = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVer {
		fmt.Fprintln(out, version.String())
		return nil
	}
	if *list {
		scenario.WriteList(out)
		return nil
	}
	if *listTop {
		topology.WriteList(out)
		return nil
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var sc scenario.Scenario
	if *scn != "" {
		loaded, err := loadScenario(*scn)
		if err != nil {
			return err
		}
		sc = loaded
	}

	// Flags fill scenario fields they own, but when a scenario file or
	// name was given, only explicitly-set flags override it.
	override := func(name string, apply func()) {
		if *scn == "" || set[name] {
			apply()
		}
	}
	if sc.N == 0 || set["n"] {
		sc.N = *n
	}
	if sc.K == 0 || set["k"] {
		sc.K = *k
	}
	if sc.Seed == 0 || set["seed"] {
		sc.Seed = *seed
	}
	if *scn == "" || set["adversary"] {
		spec, err := scenario.ParseAdversary(*adv)
		if err != nil {
			return err
		}
		sc.Adversary = spec
		if spec.Reactive() && sc.Overrides.MaxRound == 0 && sc.Overrides.ExtraRounds == 0 {
			// An unlimited reactive jammer stalls the protocol forever;
			// bound the run the way the reactive experiments do.
			sc.Overrides.ExtraRounds = 6
		}
	}
	if *topo != "" || set["topology"] {
		spec, err := topology.ParseSpec(*topo)
		if err != nil {
			return err
		}
		// ApplyTopology also bounds sparse runs (ExtraRounds default).
		sc.ApplyTopology(spec)
	}
	// The legacy knob flags target their kind wherever it appears —
	// top-level, inside a composite, or in a loaded scenario — and
	// error when the kind is absent rather than silently running with
	// defaults.
	if set["jam-p"] {
		if !applyKnob(&sc.Adversary, "random", func(a *scenario.AdversarySpec) { a.P = *jamP }) {
			return fmt.Errorf("-jam-p set but the adversary %q has no random part", sc.Adversary)
		}
	}
	if set["strand"] {
		if !applyKnob(&sc.Adversary, "partition", func(a *scenario.AdversarySpec) { a.Strand = *strand }) {
			return fmt.Errorf("-strand set but the adversary %q has no partition part", sc.Adversary)
		}
	}
	override("pool", func() { sc.Budget.Pool = *pool; sc.Budget.ModelC, sc.Budget.ModelF = 0, 0 })
	override("decoy", func() { sc.Decoy = *decoy })
	override("engine", func() { sc.Engine = *eng })
	override("phases", func() { sc.RecordPhases = *phases })
	override("paper", func() { sc.Paper = *paper })
	override("budgets", func() {
		if *budgets {
			sc.Budget.DeviceC = 8
		} else {
			sc.Budget.DeviceC = 0 // explicit -budgets=false disables a scenario's device budgets
		}
	})
	if sc.Engine == "fast" {
		sc.Engine = "" // canonical form; Execute treats them identically
	}

	if *dump {
		data, err := scenario.Encode(sc)
		if err != nil {
			return err
		}
		_, err = out.Write(data)
		return err
	}

	opts, err := sc.Build()
	if err != nil {
		return err
	}
	switch {
	case *traceTo == "":
	case *traceTo == "text":
		opts.Tracer = trace.NewText(out)
	case *traceTo == "json":
		opts.Tracer = trace.NewJSON(out)
	default:
		f, err := os.Create(*traceTo)
		if err != nil {
			return err
		}
		defer f.Close()
		opts.Tracer = trace.NewJSON(f)
	}

	res, err := scenario.Execute(sc.Engine, opts)
	if err != nil {
		return err
	}
	report(out, sc, opts, res)
	return nil
}

// applyKnob applies f to every part of the spec with the given kind
// (the spec itself or any composite part) and reports whether any
// matched.
func applyKnob(spec *scenario.AdversarySpec, kind string, f func(*scenario.AdversarySpec)) bool {
	applied := false
	if spec.Kind == kind {
		f(spec)
		applied = true
	}
	for i := range spec.Parts {
		if applyKnob(&spec.Parts[i], kind, f) {
			applied = true
		}
	}
	return applied
}

// loadScenario resolves -scenario: a registry name, or a JSON file path.
func loadScenario(arg string) (scenario.Scenario, error) {
	if sc, ok := scenario.Lookup(arg); ok {
		return sc, nil
	}
	if strings.HasSuffix(arg, ".json") || fileExists(arg) {
		data, err := os.ReadFile(arg)
		if err != nil {
			return scenario.Scenario{}, err
		}
		return scenario.Decode(data)
	}
	return scenario.Scenario{}, fmt.Errorf(
		"unknown scenario %q: not a registry name (-list-scenarios) and not a readable .json file", arg)
}

func fileExists(path string) bool {
	info, err := os.Stat(path)
	return err == nil && !info.IsDir()
}

func report(out io.Writer, sc scenario.Scenario, opts engine.Options, res *engine.Result) {
	params := opts.Params
	if sc.Name != "" {
		fmt.Fprintf(out, "scenario:   %s\n", sc.Name)
	}
	fmt.Fprintf(out, "protocol:   ε-BROADCAST k=%d n=%d (%s, start round %d)\n",
		params.K, params.N, params.Variant, params.StartRound)
	if !sc.Topology.IsClique() {
		topo, err := sc.Topology.Build(params.N, sc.Seed)
		reachable := "?"
		if err == nil {
			reachable = fmt.Sprintf("%d", topology.ReachableWithin(topo, params.K))
		}
		fmt.Fprintf(out, "topology:   %s (k-hop reachable ceiling %s/%d)\n",
			sc.Topology, reachable, params.N)
	}
	fmt.Fprintf(out, "adversary:  %s (spent T=%d: %d jams, %d spoofs)\n",
		res.StrategyName, res.AdversarySpent, res.AdversaryJams, res.AdversaryInjections)
	fmt.Fprintf(out, "delivery:   %d/%d informed (%.1f%%), %d stranded, %d dead, %d still active\n",
		res.Informed, res.N, 100*res.InformedFrac(), res.Stranded, res.Dead, res.ActiveAtEnd)
	fmt.Fprintf(out, "latency:    %d slots over %d rounds (completed=%t)\n",
		res.SlotsSimulated, res.Rounds, res.Completed)
	fmt.Fprintf(out, "alice:      cost %d (%d sends, %d listens), terminated=%t round=%d\n",
		res.Alice.Cost, res.Alice.Sends, res.Alice.Listens, res.Alice.Terminated, res.Alice.Round)
	fmt.Fprintf(out, "node cost:  min %d / median %d / mean %.1f / max %d\n",
		res.NodeCost.Min, res.NodeCost.Median, res.NodeCost.Mean, res.NodeCost.Max)
	if res.AdversarySpent > 0 && res.NodeCost.Median > 0 {
		fmt.Fprintf(out, "competitive: Carol paid %.1fx the median node (paper: node ~ T^{1/%d})\n",
			float64(res.AdversarySpent)/float64(res.NodeCost.Median), params.K+1)
	}
	if sc.RecordPhases {
		fmt.Fprintln(out, "\nper-phase trace:")
		for _, ph := range res.Phases {
			fmt.Fprintf(out, "  %-28s aliceSends=%-5d relays=%-6d nacks=%-6d decoys=%-6d jams=%-7d informed=%-5d active=%d\n",
				ph.Phase.String(), ph.AliceSends, ph.NodeDataSends, ph.NodeNacks,
				ph.NodeDecoys, ph.JammedSlots, ph.InformedAfter, ph.ActiveAfter)
		}
	}
}
