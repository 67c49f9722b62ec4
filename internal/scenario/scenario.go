package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"rcbcast/internal/adversary"
	"rcbcast/internal/core"
	"rcbcast/internal/energy"
	"rcbcast/internal/engine"
	"rcbcast/internal/sim"
	"rcbcast/internal/topology"
)

// BudgetSpec declares the energy side of a scenario: Carol's pool and,
// optionally, the paper's per-device budgets. The zero value means an
// unlimited adversary and uncapped devices.
type BudgetSpec struct {
	// Pool is a fixed adversary energy pool in slots (0 = none).
	// Mutually exclusive with ModelC.
	Pool int64 `json:"pool,omitempty"`
	// ModelC > 0 selects the paper's pooled budget instead:
	// energy.DefaultBudgets(ModelC, k).AdversaryPool(n, ModelF) —
	// Carol's individual budget plus ModelF·n Byzantine devices' (§1.1,
	// Lemma 11).
	ModelC float64 `json:"model_c,omitempty"`
	// ModelF is the Byzantine device fraction f for the model pool,
	// in [0, 1].
	ModelF float64 `json:"model_f,omitempty"`
	// DeviceC > 0 enforces the paper's per-device budgets on the correct
	// side: node C·n^{1/k}, Alice C·n^{1/k}·ln^k n.
	DeviceC float64 `json:"device_c,omitempty"`
}

// Validate reports the first violated constraint, or nil.
func (b BudgetSpec) Validate() error {
	switch {
	case b.Pool < 0:
		return fmt.Errorf("scenario: budget pool must be >= 0 (got %d)", b.Pool)
	case b.Pool > 0 && b.ModelC > 0:
		return fmt.Errorf("scenario: budget pool and model_c are mutually exclusive")
	case b.ModelC < 0 || b.DeviceC < 0:
		return fmt.Errorf("scenario: budget constants must be >= 0")
	case b.ModelF > 0 && b.ModelC == 0:
		return fmt.Errorf("scenario: model_f needs model_c > 0")
	case b.ModelF < 0 || b.ModelF > 1:
		// f is the *fraction* of devices that are Byzantine; a raw
		// count here (e.g. 25 instead of 1/25) would silently grant
		// Carol a pool hundreds of times the intended threat model.
		return fmt.Errorf("scenario: model_f is a fraction in [0, 1] (got %v)", b.ModelF)
	}
	return nil
}

// NewPool mints a fresh adversary pool for one run, or nil when the
// spec leaves Carol unlimited. Pools carry per-run mutable state, so
// parallel trials must call this once per trial.
func (b BudgetSpec) NewPool(n, k int) *energy.Pool {
	switch {
	case b.ModelC > 0:
		return energy.DefaultBudgets(b.ModelC, k).AdversaryPool(n, b.ModelF)
	case b.Pool > 0:
		return energy.NewPool(b.Pool)
	default:
		return nil
	}
}

// limited reports whether the spec creates a pool at all.
func (b BudgetSpec) limited() bool { return b.Pool > 0 || b.ModelC > 0 }

// Overrides are optional protocol-parameter adjustments applied on top
// of the Paper/Practical base (all zero = untouched). They cover every
// field the CLIs, experiments and examples historically poked by hand.
type Overrides struct {
	// Epsilon replaces ε′ (the quiet-test scale).
	Epsilon float64 `json:"epsilon,omitempty"`
	// C replaces the protocol constant c.
	C float64 `json:"c,omitempty"`
	// StartRound replaces the first round index.
	StartRound int `json:"start_round,omitempty"`
	// MaxRound sets an absolute round cap. Mutually exclusive with
	// ExtraRounds.
	MaxRound int `json:"max_round,omitempty"`
	// ExtraRounds caps the run at StartRound + ExtraRounds — the idiom
	// every experiment uses to bound hopeless runs.
	ExtraRounds int `json:"extra_rounds,omitempty"`
	// DecoyProb / ListenBoost override the §4.1 decoy constants that
	// Params.EnableDecoy sets.
	DecoyProb   float64 `json:"decoy_prob,omitempty"`
	ListenBoost float64 `json:"listen_boost,omitempty"`
	// LnScale sets LnOverride = LnScale·ln n and NScale sets
	// NOverride = NScale·n — the §4.2 approximate-parameter mode.
	LnScale float64 `json:"ln_scale,omitempty"`
	NScale  float64 `json:"n_scale,omitempty"`
	// PolyEstimate sets the §4.2 polynomial overestimate ν directly.
	PolyEstimate float64 `json:"poly_estimate,omitempty"`
	// QuietFrac replaces the fraction-mode termination threshold.
	QuietFrac float64 `json:"quiet_frac,omitempty"`
}

// Scenario is a complete, serializable run description: protocol
// instance, adversary, budgets and engine. It is the one value every
// entry point (CLI flags, JSON files, experiments, examples, the
// façade) converts into engine.Options or sim.TrialSpec.
type Scenario struct {
	// Name labels the scenario in listings and reports (optional).
	Name string `json:"name,omitempty"`

	// N is the number of correct nodes (required to run).
	N int `json:"n,omitempty"`
	// K is the protocol parameter k (0 selects 2).
	K int `json:"k,omitempty"`
	// Paper selects core.PaperParams instead of core.PracticalParams.
	Paper bool `json:"paper,omitempty"`
	// Decoy enables the §4.1 decoy defence (Params.EnableDecoy).
	Decoy bool `json:"decoy,omitempty"`
	// Quiet overrides the termination test: "", "absolute", "fraction".
	Quiet string `json:"quiet,omitempty"`
	// Topology selects the neighborhood graph reception is resolved
	// against: clique (the default — the paper's single-hop channel),
	// grid, or gilbert (internal/topology). Compact flag syntax:
	// "grid:w=32,reach=2", "gilbert:r=0.2".
	Topology topology.Spec `json:"topology,omitzero"`
	// Overrides adjust individual protocol parameters.
	Overrides Overrides `json:"overrides,omitzero"`

	// Adversary describes Carol (zero value = none).
	Adversary AdversarySpec `json:"adversary,omitzero"`
	// Budget declares her pool and the optional device budgets.
	Budget BudgetSpec `json:"budget,omitzero"`
	// Reactive grants the adversary its within-slot RSSI view even if
	// the kind does not imply it (reactive kinds are granted
	// automatically).
	Reactive bool `json:"reactive,omitempty"`

	// Seed drives every random decision of the run.
	Seed uint64 `json:"seed,omitempty"`
	// Engine selects the executor of single runs (Run, RunContext):
	// "", "fast", "actors". Sweeps (Stream) always run on the batch
	// kernel and ignore it.
	Engine string `json:"engine,omitempty"`
	// Batch is ignored: every sweep runs on the batch kernel. It is
	// kept, and still range-checked, so stored scenarios and job files
	// that carry "batch" keep decoding.
	//
	// Deprecated: ignored.
	Batch int `json:"batch,omitempty"`
	// RecordPhases retains per-phase outcomes in the Result.
	RecordPhases bool `json:"record_phases,omitempty"`
}

// Validate reports the first violated constraint, or nil. The resolved
// protocol parameters are validated too, so a Scenario that passes
// Validate will Build.
func (s Scenario) Validate() error {
	_, _, err := s.resolve()
	return err
}

// resolve validates the scenario and returns its resolved protocol
// instance and adversary spec — the one checking/derivation pass
// shared by Validate, Build and TrialSpec. The adversary spec is taken
// exactly as stated: parse-time defaults belong to ParseAdversary, so
// an explicitly zero knob here is either valid as written or a
// validation error, never a silent substitution.
func (s Scenario) resolve() (core.Params, AdversarySpec, error) {
	fail := func(err error) (core.Params, AdversarySpec, error) {
		return core.Params{}, AdversarySpec{}, err
	}
	spec := s.Adversary
	if err := spec.Validate(); err != nil {
		return fail(err)
	}
	if err := s.Budget.Validate(); err != nil {
		return fail(err)
	}
	if err := s.Topology.Validate(); err != nil {
		return fail(err)
	}
	switch s.Engine {
	case "", "fast", "actors":
	default:
		return fail(fmt.Errorf("scenario: unknown engine %q (have fast, actors)", s.Engine))
	}
	switch s.Quiet {
	case "", "absolute", "fraction":
	default:
		return fail(fmt.Errorf("scenario: unknown quiet mode %q (have absolute, fraction)", s.Quiet))
	}
	if s.Overrides.MaxRound != 0 && s.Overrides.ExtraRounds != 0 {
		return fail(fmt.Errorf("scenario: max_round and extra_rounds are mutually exclusive"))
	}
	if s.Batch < 0 {
		return fail(fmt.Errorf("scenario: batch width must be >= 0 (got %d)", s.Batch))
	}
	params, err := s.Params()
	if err != nil {
		return fail(err)
	}
	if err := params.Validate(); err != nil {
		return fail(fmt.Errorf("scenario: %w", err))
	}
	return params, spec, nil
}

// Params resolves the scenario's protocol instance: base parameters,
// then the decoy defence, then the quiet mode, then field overrides —
// every parameter effect lands here, strictly before any
// engine.Options assembly (Build), so no option can observe a
// half-adjusted instance.
func (s Scenario) Params() (core.Params, error) {
	if s.N == 0 {
		return core.Params{}, fmt.Errorf("scenario: n is required")
	}
	k := s.K
	if k == 0 {
		k = 2
	}
	var p core.Params
	if s.Paper {
		p = core.PaperParams(s.N, k)
	} else {
		p = core.PracticalParams(s.N, k)
	}
	if s.Decoy {
		p.EnableDecoy()
	}
	switch s.Quiet {
	case "absolute":
		p.Quiet = core.QuietAbsolute
	case "fraction":
		p.Quiet = core.QuietFraction
	}
	o := s.Overrides
	if o.Epsilon > 0 {
		p.Epsilon = o.Epsilon
	}
	if o.C > 0 {
		p.C = o.C
	}
	if o.StartRound > 0 {
		p.StartRound = o.StartRound
	}
	if o.MaxRound > 0 {
		p.MaxRound = o.MaxRound
	}
	if o.ExtraRounds > 0 {
		p.MaxRound = p.StartRound + o.ExtraRounds
	}
	if o.DecoyProb > 0 {
		p.DecoyProb = o.DecoyProb
	}
	if o.ListenBoost > 0 {
		p.ListenBoost = o.ListenBoost
	}
	if o.LnScale > 0 {
		p.LnOverride = o.LnScale * p.LnN()
	}
	if o.NScale > 0 {
		p.NOverride = o.NScale * float64(p.N)
	}
	if o.PolyEstimate > 0 {
		p.PolyEstimate = o.PolyEstimate
	}
	if o.QuietFrac > 0 {
		p.QuietFrac = o.QuietFrac
	}
	return p, nil
}

// allowReactive reports whether the run grants the within-slot RSSI
// view.
func (s Scenario) allowReactive() bool { return s.Reactive || s.Adversary.Reactive() }

// SparseTopologyExtraRounds is the default round bound ApplyTopology
// installs for sparse graphs; the registry's topology entries use the
// same value.
const SparseTopologyExtraRounds = 3

// ApplyTopology sets the scenario's topology and, for sparse graphs
// with no explicit round bound, caps the run at
// StartRound+SparseTopologyExtraRounds: nodes beyond Alice's k-hop
// reach hear their neighbors' NACKs forever and never pass the quiet
// test, so an unbounded sparse run only grinds to the natural round
// limit (DESIGN.md §9). This is the one place both CLIs route
// -topology through.
func (s *Scenario) ApplyTopology(spec topology.Spec) {
	s.Topology = spec
	if !spec.IsClique() && s.Overrides.MaxRound == 0 && s.Overrides.ExtraRounds == 0 {
		s.Overrides.ExtraRounds = SparseTopologyExtraRounds
	}
}

// Build converts the scenario into engine.Options. Parameters are
// fully resolved (Params) before the options are assembled, and a
// fresh strategy and pool are minted, so the returned options are safe
// to run exactly once (pools and several strategies are stateful; call
// Build again for another run, or use TrialSpec for parallel sweeps).
func (s Scenario) Build() (engine.Options, error) {
	params, spec, err := s.resolve()
	if err != nil {
		return engine.Options{}, err
	}
	opts := engine.Options{
		Params:        params,
		Topology:      s.Topology,
		Seed:          s.Seed,
		AllowReactive: s.allowReactive(),
		RecordPhases:  s.RecordPhases,
	}
	if !spec.IsNull() {
		opts.Strategy = spec.MustNew(params)
	}
	if pool := s.Budget.NewPool(params.N, params.K); pool != nil {
		opts.Pool = pool
	}
	if s.Budget.DeviceC > 0 {
		bm := energy.DefaultBudgets(s.Budget.DeviceC, params.K)
		opts.NodeBudget = bm.Node(params.N)
		opts.AliceBudget = bm.Alice(params.N)
	}
	return opts, nil
}

// Run builds and executes the scenario on its selected engine.
func (s Scenario) Run() (*engine.Result, error) {
	return s.RunContext(context.Background())
}

// RunContext builds and executes the scenario on its selected engine,
// checking ctx at every phase boundary; cancellation returns the
// engine's typed *engine.PartialRunError.
func (s Scenario) RunContext(ctx context.Context) (*engine.Result, error) {
	opts, err := s.Build()
	if err != nil {
		return nil, err
	}
	return ExecuteContext(ctx, s.Engine, opts)
}

// Execute runs assembled options on the named engine ("" and "fast"
// select the sequential event-driven engine, "actors" the goroutine
// engine). Both produce bit-for-bit identical results.
func Execute(engineName string, opts engine.Options) (*engine.Result, error) {
	return ExecuteContext(context.Background(), engineName, opts)
}

// ExecuteContext is Execute with phase-boundary cancellation.
func ExecuteContext(ctx context.Context, engineName string, opts engine.Options) (*engine.Result, error) {
	switch engineName {
	case "", "fast":
		return engine.RunContext(ctx, opts)
	case "actors":
		return engine.RunActorsContext(ctx, opts)
	default:
		return nil, fmt.Errorf("scenario: unknown engine %q (have fast, actors)", engineName)
	}
}

// Stream runs `trials` Monte-Carlo trials of the scenario — seeded
// sim.SweepSeed(base, point, t) exactly like TrialSpecs — through the
// streaming run session: results are delivered to the sinks in trial
// order with bounded buffering, so the sweep holds O(procs) live
// results however large trials gets. Cancellation of ctx surfaces as a
// *sim.PartialError whose Delivered prefix has reached every sink.
func (s Scenario) Stream(ctx context.Context, procs int, base uint64, point, trials int, sinks ...sim.Sink) error {
	specs, err := s.TrialSpecs(base, point, trials)
	if err != nil {
		return err
	}
	return sim.Stream(ctx, procs, specs, sinks...)
}

// TrialSpec converts the scenario into one sim.TrialSpec for the
// parallel trial runner, with the given fully derived seed (see
// sim.TrialSeed / sim.SweepSeed). The spec's factories mint a fresh
// strategy and pool per trial, so specs from one scenario are safe to
// run concurrently.
func (s Scenario) TrialSpec(seed uint64) (sim.TrialSpec, error) {
	params, spec, err := s.resolve()
	if err != nil {
		return sim.TrialSpec{}, err
	}
	ts := sim.TrialSpec{Params: params, Topology: s.Topology, Seed: seed}
	if !spec.IsNull() {
		ts.Strategy = func() adversary.Strategy { return spec.MustNew(params) }
	}
	if budget := s.Budget; budget.limited() {
		ts.Pool = func() *energy.Pool { return budget.NewPool(params.N, params.K) }
	}
	reactive, record, deviceC := s.allowReactive(), s.RecordPhases, s.Budget.DeviceC
	if reactive || record || deviceC > 0 {
		n, k := params.N, params.K
		ts.Configure = func(o *engine.Options) {
			if reactive {
				o.AllowReactive = true
			}
			if record {
				o.RecordPhases = true
			}
			if deviceC > 0 {
				bm := energy.DefaultBudgets(deviceC, k)
				o.NodeBudget = bm.Node(n)
				o.AliceBudget = bm.Alice(n)
			}
		}
	}
	return ts, nil
}

// TrialSpecs returns `trials` specs for a Monte-Carlo sweep point,
// seeded with sim.SweepSeed(base, point, t) for t = 0..trials-1. The
// scenario is resolved once; the specs differ only in their seeds (the
// shared factories mint fresh per-trial state regardless). Contiguous
// sub-ranges of the same sweep come from ShardSpecs.
func (s Scenario) TrialSpecs(base uint64, point, trials int) ([]sim.TrialSpec, error) {
	return s.ShardSpecs(base, point, trials, Shard{})
}

// Decode parses a JSON scenario, rejecting unknown fields so typos in
// hand-written files surface as errors instead of silently benign runs.
// Errors name the offending field path and value kind (see decodeErr) —
// they double as the sweep service's 400 bodies, so "cannot unmarshal
// string into Go value" without a path is not good enough.
func Decode(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, decodeErr(err)
	}
	return s, nil
}

// decodeErr rewrites encoding/json's decode failures into messages that
// name what the author has to fix: the field path from the document
// root (type errors carry it as UnmarshalTypeError.Field), the JSON
// value kind found there, and the Go type it must decode into. Unknown
// fields keep the offending name; syntax errors keep the byte offset.
func decodeErr(err error) error {
	var te *json.UnmarshalTypeError
	if errors.As(err, &te) {
		if te.Field == "" {
			return fmt.Errorf("scenario: decode: a scenario is a JSON object, not JSON %s", te.Value)
		}
		return fmt.Errorf("scenario: decode: field %q: cannot use JSON %s as %s",
			te.Field, te.Value, te.Type)
	}
	var se *json.SyntaxError
	if errors.As(err, &se) {
		return fmt.Errorf("scenario: decode: invalid JSON at byte %d: %w", se.Offset, err)
	}
	// DisallowUnknownFields reports a bare `json: unknown field "x"`;
	// keep the quoted name and say how to list the valid ones.
	if rest, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
		return fmt.Errorf("scenario: decode: unknown field %s (rcbcast -dump-scenario prints every valid field)", rest)
	}
	return fmt.Errorf("scenario: decode: %w", err)
}

// Encode renders the scenario as indented JSON. Encoding is
// deterministic: encode→Decode→Encode is byte-stable (pinned by test).
func Encode(s Scenario) ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
