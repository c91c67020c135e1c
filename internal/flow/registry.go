package flow

import (
	"fmt"
	"sort"
	"sync"

	"cnfetdk/internal/logic"
	"cnfetdk/internal/synth"
)

// Circuit is one named benchmark the design service can run: a netlist
// builder, an optional exhaustive specification, and the default stimulus
// for the timing/energy analyses.
type Circuit struct {
	Name        string
	Description string
	// Build produces the gate-level netlist.
	Build func() (*synth.Netlist, error)
	// Spec returns the Boolean specification for exhaustive logic
	// verification (nil skips verification).
	Spec func() map[string]*logic.Expr
	// SpecSamples bounds the verification to a deterministic sample of
	// that many input vectors (0 = exhaustive). Wide circuits (rca8's
	// 17 inputs) set it so the netlist stage stays sub-second.
	SpecSamples int
	// Stimulus is the default delay/energy stimulus: static input
	// levels plus one pulsed input, chosen so primary outputs toggle.
	Stimulus Stimulus
	// Rows pins the row count of rows-based placements (0 = auto);
	// case studies that reproduce a specific paper figure set it.
	Rows int
}

var (
	registryMu sync.RWMutex
	registry   = map[string]*Circuit{}
)

// RegisterCircuit adds a circuit to the registry; duplicate names panic
// (registration is a program-init concern, like database/sql drivers).
func RegisterCircuit(c Circuit) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if c.Name == "" || c.Build == nil {
		panic("flow: RegisterCircuit needs a name and a builder")
	}
	if _, dup := registry[c.Name]; dup {
		panic(fmt.Sprintf("flow: duplicate circuit %q", c.Name))
	}
	cc := c
	registry[c.Name] = &cc
}

// LookupCircuit resolves a registry name; unknown names return
// ErrUnknownCircuit.
func LookupCircuit(name string) (*Circuit, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCircuit, name)
	}
	return c, nil
}

// Circuits lists the registered circuits sorted by name.
func Circuits() []*Circuit {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]*Circuit, 0, len(registry))
	for _, c := range registry {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// The built-in benchmark set: the paper's full-adder case study plus
// circuits spanning the regimes the flow should cover — a wide
// carry-chain datapath, control-style multiplexing and decoding, a
// deep XOR tree, and a chain of the complex AOI/OAI cells of Table 1.
func init() {
	RegisterCircuit(Circuit{
		Name:        "fulladder",
		Description: "Fig 8a mirror-style full adder (case study 2)",
		Build:       func() (*synth.Netlist, error) { return synth.FullAdder(), nil },
		Spec:        synth.FullAdderSpec,
		// A=1, B=0 propagates Cin to both Sum (inverting) and Carry
		// (non-inverting) — the paper's measurement arcs.
		Stimulus: Stimulus{Static: map[string]bool{"A": true, "B": false}, Pulse: "Cin"},
		// The paper's case-study placements use two rows.
		Rows: 2,
	})
	RegisterCircuit(Circuit{
		Name:        "rca4",
		Description: "4-bit ripple-carry adder (4 structural full adders)",
		Build:       func() (*synth.Netlist, error) { return synth.RippleCarryAdder(4), nil },
		Spec:        func() map[string]*logic.Expr { return synth.RippleCarryAdderSpec(4) },
		// A=1111, B=0000 puts every bit in propagate mode: a pulse on
		// C0 ripples through the whole carry chain to C4.
		Stimulus: Stimulus{Static: map[string]bool{
			"A0": true, "A1": true, "A2": true, "A3": true,
			"B0": false, "B1": false, "B2": false, "B3": false,
		}, Pulse: "C0"},
	})
	RegisterCircuit(Circuit{
		Name:        "rca8",
		Description: "8-bit ripple-carry adder (8 structural full adders)",
		Build:       func() (*synth.Netlist, error) { return synth.RippleCarryAdder(8), nil },
		Spec:        func() map[string]*logic.Expr { return synth.RippleCarryAdderSpec(8) },
		// 17 inputs: exhaustive verification is 131072 vectors, so the
		// spec check runs on a deterministic 4096-vector sample.
		SpecSamples: 4096,
		// A=11111111, B=0: a pulse on C0 ripples through all eight
		// carry stages to C8 — the longest chain the solver sees short
		// of the multiplier.
		Stimulus: Stimulus{Static: map[string]bool{
			"A0": true, "A1": true, "A2": true, "A3": true,
			"A4": true, "A5": true, "A6": true, "A7": true,
			"B0": false, "B1": false, "B2": false, "B3": false,
			"B4": false, "B5": false, "B6": false, "B7": false,
		}, Pulse: "C0"},
	})
	RegisterCircuit(Circuit{
		Name:        "rca16",
		Description: "16-bit ripple-carry adder (16 structural full adders)",
		Build:       func() (*synth.Netlist, error) { return synth.RippleCarryAdder(16), nil },
		Spec:        func() map[string]*logic.Expr { return synth.RippleCarryAdderSpec(16) },
		// 33 inputs: verification runs on a deterministic 2048-vector
		// sample of the 2^33 space.
		SpecSamples: 2048,
		// A=0xFFFF, B=0: a pulse on C0 ripples through all sixteen carry
		// stages to C16 — the deep-chain STA stress case.
		Stimulus: Stimulus{Static: func() map[string]bool {
			s := map[string]bool{}
			for i := 0; i < 16; i++ {
				s[fmt.Sprintf("A%d", i)] = true
				s[fmt.Sprintf("B%d", i)] = false
			}
			return s
		}(), Pulse: "C0"},
	})
	RegisterCircuit(Circuit{
		Name:        "mult4",
		Description: "4-bit ripple-carry array multiplier (AND array + HA/FA rows)",
		Build:       func() (*synth.Netlist, error) { return synth.ArrayMultiplier(4), nil },
		Spec:        func() map[string]*logic.Expr { return synth.ArrayMultiplierSpec(4) },
		// A=1111, B=B0: P = 15·B0, so toggling B0 toggles P0..P3
		// through the partial-product array and two adder rows.
		Stimulus: Stimulus{Static: map[string]bool{
			"A0": true, "A1": true, "A2": true, "A3": true,
			"B1": false, "B2": false, "B3": false,
		}, Pulse: "B0"},
	})
	RegisterCircuit(Circuit{
		Name:        "mult8",
		Description: "8-bit ripple-carry array multiplier (AND array + HA/FA rows)",
		Build:       func() (*synth.Netlist, error) { return synth.ArrayMultiplier(8), nil },
		// Verified exhaustively: 2^16 vectors, 1024 bit-parallel words.
		Spec: func() map[string]*logic.Expr { return synth.ArrayMultiplierSpec(8) },
		// A=0xFF, B=B0: P = 255·B0, so toggling B0 toggles every product
		// bit through the partial-product array and seven adder rows.
		Stimulus: Stimulus{Static: func() map[string]bool {
			s := map[string]bool{}
			for i := 0; i < 8; i++ {
				s[fmt.Sprintf("A%d", i)] = true
				if i > 0 {
					s[fmt.Sprintf("B%d", i)] = false
				}
			}
			return s
		}(), Pulse: "B0"},
	})
	RegisterCircuit(Circuit{
		Name:        "mux2",
		Description: "2:1 multiplexer synthesized onto NAND2/INV",
		Build:       synth.Mux2,
		Spec:        synth.Mux2Spec,
		// D0=0, D1=1: Y follows the select.
		Stimulus: Stimulus{Static: map[string]bool{"D0": false, "D1": true}, Pulse: "S"},
	})
	RegisterCircuit(Circuit{
		Name:        "mux4",
		Description: "4:1 multiplexer synthesized onto NAND2/INV",
		Build:       synth.Mux4,
		// D0=1, siblings 0, S1=0: toggling S0 switches Y between D0
		// and D1.
		Stimulus: Stimulus{Static: map[string]bool{
			"D0": true, "D1": false, "D2": false, "D3": false, "S1": false,
		}, Pulse: "S0"},
	})
	RegisterCircuit(Circuit{
		Name:        "dec2",
		Description: "2:4 decoder with enable",
		Build:       synth.Decoder2,
		// En=1, B=0: toggling A moves the hot output between Y0 and Y1.
		Stimulus: Stimulus{Static: map[string]bool{"En": true, "B": false}, Pulse: "A"},
	})
	RegisterCircuit(Circuit{
		Name:        "parity4",
		Description: "4-input XOR parity tree",
		Build:       func() (*synth.Netlist, error) { return synth.ParityTree(4) },
		Spec:        func() map[string]*logic.Expr { return synth.ParityTreeSpec(4) },
		// Sibling inputs low: P = I0.
		Stimulus: Stimulus{Static: map[string]bool{
			"I1": false, "I2": false, "I3": false,
		}, Pulse: "I0"},
	})
	RegisterCircuit(Circuit{
		Name:        "aoichain4",
		Description: "4-stage alternating AOI21/OAI21 chain",
		Build:       func() (*synth.Netlist, error) { return synth.AOIChain(4), nil },
		Spec:        func() map[string]*logic.Expr { return synth.AOIChainSpec(4) },
		// P=1,Q=0 / R=0,S=1 degenerate every stage to an inverter, so a
		// pulse on IN traverses all four complex cells.
		Stimulus: Stimulus{Static: map[string]bool{
			"P": true, "Q": false, "R": false, "S": true,
		}, Pulse: "IN"},
	})
}
