package topology

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Spec is the plain-data, serializable description of a topology — the
// form scenarios carry (JSON) and the CLIs parse (compact flag syntax).
// The zero value is the clique, so every pre-topology scenario keeps
// its meaning and its encoding.
type Spec struct {
	// Kind selects the graph family: "", "clique", "grid", "gilbert".
	// The empty string is the clique (the engine default).
	Kind string `json:"kind,omitempty"`
	// Width is the grid's column count (0 = ceil(sqrt(n))).
	Width int `json:"width,omitempty"`
	// Reach is the grid's Chebyshev audibility radius in cells (0 = 1).
	Reach int `json:"reach,omitempty"`
	// Radius is the Gilbert graph's connection radius in the unit
	// square. Required for kind "gilbert".
	Radius float64 `json:"radius,omitempty"`
}

// IsClique reports whether the spec selects the clique, the one kind
// the engine runs without building a graph.
func (s Spec) IsClique() bool { return s.Kind == "" || s.Kind == "clique" }

// Validate reports the first violated constraint, or nil.
func (s Spec) Validate() error {
	switch s.Kind {
	case "", "clique":
		if s.Width != 0 || s.Reach != 0 || s.Radius != 0 {
			return fmt.Errorf("topology: clique takes no knobs")
		}
	case "grid":
		if s.Radius != 0 {
			return fmt.Errorf("topology: radius is a gilbert knob (grid takes w, reach)")
		}
		if s.Width < 0 || s.Reach < 0 {
			return fmt.Errorf("topology: grid width and reach must be >= 0")
		}
	case "gilbert":
		if s.Width != 0 || s.Reach != 0 {
			return fmt.Errorf("topology: width/reach are grid knobs (gilbert takes r)")
		}
		if s.Radius <= 0 || s.Radius > 2 {
			return fmt.Errorf("topology: gilbert needs a radius in (0, 2] (got %v)", s.Radius)
		}
	default:
		return fmt.Errorf("topology: unknown kind %q (have clique, grid, gilbert)", s.Kind)
	}
	return nil
}

// Build constructs the topology over n nodes. Randomized kinds draw
// from the stream keyed (seed, StreamActor), so the result is a pure
// function of (spec, n, seed).
func (s Spec) Build(n int, seed uint64) (Topology, error) {
	return s.BuildInto(n, seed, nil)
}

// BuildInto is Build constructing into the scratch's reused buffers (a
// nil scratch allocates fresh ones, exactly as Build). The graph is
// byte-identical either way; with a scratch it is valid until the next
// build on the same scratch.
func (s Spec) BuildInto(n int, seed uint64, sc *Scratch) (Topology, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("topology: need n >= 1 (got %d)", n)
	}
	switch s.Kind {
	case "", "clique":
		return NewClique(n), nil
	case "grid":
		if sc == nil {
			sc = NewScratch()
		}
		sc.grid = NewGrid(n, s.Width, s.Reach)
		return &sc.grid, nil
	default: // "gilbert", by Validate
		return NewGilbertInto(n, s.Radius, seed, sc), nil
	}
}

// ParseSpec decodes the compact flag syntax:
//
//	KIND[:KEY=VALUE[,KEY=VALUE...]]
//
// Examples: "clique", "grid", "grid:w=32,reach=2", "gilbert:r=0.2".
// The inverse is Spec.String.
func ParseSpec(arg string) (Spec, error) {
	kind, knobs, hasKnobs := strings.Cut(strings.TrimSpace(arg), ":")
	if kind == "" {
		return Spec{}, fmt.Errorf("topology: empty spec (use %q for the single-hop channel)", "clique")
	}
	switch kind {
	case "clique", "grid", "gilbert":
	default:
		return Spec{}, fmt.Errorf("topology: unknown kind %q (have clique, grid, gilbert)", kind)
	}
	spec := Spec{Kind: kind}
	if hasKnobs {
		for _, kv := range strings.Split(knobs, ",") {
			key, val, _ := strings.Cut(kv, "=")
			if err := spec.setKnob(strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
				return Spec{}, err
			}
		}
	}
	return spec, spec.Validate()
}

func (s *Spec) setKnob(key, val string) error {
	switch key {
	case "w":
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("topology: bad value %q for knob %q", val, key)
		}
		s.Width = v
	case "reach":
		v, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("topology: bad value %q for knob %q", val, key)
		}
		s.Reach = v
	case "r":
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("topology: bad value %q for knob %q", val, key)
		}
		s.Radius = v
	default:
		return fmt.Errorf("topology: unknown knob %q (have w, reach for grid; r for gilbert)", key)
	}
	return nil
}

// String renders the spec in the flag syntax; the output reparses to an
// identical spec. The zero value renders as "clique".
func (s Spec) String() string {
	kind := s.Kind
	if kind == "" {
		kind = "clique"
	}
	var knobs []string
	if s.Width != 0 {
		knobs = append(knobs, "w="+strconv.Itoa(s.Width))
	}
	if s.Reach != 0 {
		knobs = append(knobs, "reach="+strconv.Itoa(s.Reach))
	}
	if s.Radius != 0 {
		knobs = append(knobs, "r="+strconv.FormatFloat(s.Radius, 'g', -1, 64))
	}
	if len(knobs) == 0 {
		return kind
	}
	return kind + ":" + strings.Join(knobs, ",")
}

// KindInfo describes one topology kind for CLI listings.
type KindInfo struct {
	Name, Summary, Knobs string
}

// Kinds returns the topology registry for -list-topologies.
func Kinds() []KindInfo {
	return []KindInfo{
		{"clique", "single shared channel, every device in range (the paper's model; default)", ""},
		{"grid", "rectangular lattice, Alice at the origin corner", "w=COLS, reach=CELLS"},
		{"gilbert", "random geometric graph: n points in the unit square, connect within r", "r=RADIUS"},
	}
}

// WriteList renders the topology-kind registry as the listing both CLIs
// print for -list-topologies.
func WriteList(w io.Writer) {
	fmt.Fprintln(w, "topology kinds (-topology KIND[:KNOB=V,...]):")
	for _, k := range Kinds() {
		knobs := ""
		if k.Knobs != "" {
			knobs = " [" + k.Knobs + "]"
		}
		fmt.Fprintf(w, "  %-10s %s%s\n", k.Name, k.Summary, knobs)
	}
}
