// Package spice is a compact circuit simulator: modified nodal analysis
// with Newton-Raphson for the nonlinear FET models, DC operating point
// with gmin stepping, and trapezoidal transient analysis with
// delay/energy measurement helpers. The transient takes fixed steps, or
// (Options.Adaptive) strides of whole steps over quiescent stretches
// with bypass of idle FETs. Small systems factorize with dense
// partial-pivot LU; above a crossover the solver switches to a sparse LU
// whose symbolic work (fill-reducing ordering, elimination structure,
// stamp slots) is planned once per topology and reused across Newton
// iterations, timesteps and whole solves — and shared across
// structure-identical circuits through Batch (Options.Solver overrides
// the choice).
//
// It plays the role of the paper's HSPICE + post-layout analysis kit
// (Fig 5): cell characterization, FO4 chain simulation and the full-adder
// case study all run on this engine.
package spice

import (
	"fmt"
	"math"

	"cnfetdk/internal/device"
)

// Waveform is a time-dependent source value.
type Waveform interface {
	At(t float64) float64
}

// DC is a constant waveform.
type DC float64

// At returns the constant value.
func (d DC) At(float64) float64 { return float64(d) }

// Pulse is a SPICE-style periodic pulse.
type Pulse struct {
	V0, V1                       float64
	Delay, Rise, Fall, W, Period float64
}

// At evaluates the pulse at time t.
func (p Pulse) At(t float64) float64 {
	if t < p.Delay {
		return p.V0
	}
	tt := t - p.Delay
	if p.Period > 0 {
		tt = math.Mod(tt, p.Period)
	}
	switch {
	case tt < p.Rise:
		return p.V0 + (p.V1-p.V0)*tt/p.Rise
	case tt < p.Rise+p.W:
		return p.V1
	case tt < p.Rise+p.W+p.Fall:
		return p.V1 - (p.V1-p.V0)*(tt-p.Rise-p.W)/p.Fall
	default:
		return p.V0
	}
}

// PWL is a piecewise-linear waveform.
type PWL struct {
	T, V []float64
}

// At evaluates the PWL at time t with flat extrapolation.
func (p PWL) At(t float64) float64 {
	if len(p.T) == 0 {
		return 0
	}
	if t <= p.T[0] {
		return p.V[0]
	}
	for i := 1; i < len(p.T); i++ {
		if t <= p.T[i] {
			f := (t - p.T[i-1]) / (p.T[i] - p.T[i-1])
			return p.V[i-1] + f*(p.V[i]-p.V[i-1])
		}
	}
	return p.V[len(p.V)-1]
}

// cornered is implemented by the waveforms that can list their corners,
// the times at which their slope may change. The adaptive transient
// never strides across a corner.
type cornered interface {
	// corners appends the waveform's corners in (0, tstop) to dst; ok
	// is false when it cannot list them all.
	corners(dst []float64, tstop float64) (out []float64, ok bool)
}

// corners of a constant: none.
func (DC) corners(dst []float64, _ float64) ([]float64, bool) { return dst, true }

// maxPulseCycles bounds the pulse periods corners lists; a pulse that
// repeats more often within one transient is not strided over.
const maxPulseCycles = 1024

// corners of a pulse: each cycle's rise start and end, fall start and
// end.
func (p Pulse) corners(dst []float64, tstop float64) ([]float64, bool) {
	for n := 0; ; n++ {
		t0 := p.Delay + float64(n)*p.Period
		if t0 >= tstop {
			return dst, true
		}
		if n == maxPulseCycles {
			return dst, false
		}
		for _, t := range [4]float64{t0, t0 + p.Rise, t0 + p.Rise + p.W, t0 + p.Rise + p.W + p.Fall} {
			if t > 0 && t < tstop {
				dst = append(dst, t)
			}
		}
		if p.Period <= 0 {
			return dst, true
		}
	}
}

// corners of a piecewise-linear waveform: its breakpoints.
func (p PWL) corners(dst []float64, tstop float64) ([]float64, bool) {
	for _, t := range p.T {
		if t > 0 && t < tstop {
			dst = append(dst, t)
		}
	}
	return dst, true
}

// Circuit is a flat netlist. Node "0" (alias "GND") is ground.
type Circuit struct {
	nodeIndex map[string]int
	nodeNames []string

	Resistors  []Resistor
	Capacitors []Capacitor
	VSources   []VSource
	ISources   []ISource
	FETs       []FET
}

// Resistor is a two-terminal linear resistor.
type Resistor struct {
	Name string
	A, B int
	R    float64
}

// Capacitor is a two-terminal linear capacitor.
type Capacitor struct {
	Name string
	A, B int
	C    float64
}

// VSource is an independent voltage source; its branch current is a
// solution variable.
type VSource struct {
	Name string
	P, N int
	W    Waveform
}

// ISource is an independent current source (flows P -> N through source).
type ISource struct {
	Name string
	P, N int
	W    Waveform
}

// FET is a three-terminal transistor using a device.FETParams model. Gate
// capacitance stamps gate-to-ground; drain capacitance drain-to-ground.
type FET struct {
	Name    string
	D, G, S int
	P       device.FETParams
}

// New creates an empty circuit.
func New() *Circuit {
	c := &Circuit{nodeIndex: map[string]int{}}
	c.nodeIndex["0"] = 0
	c.nodeIndex["GND"] = 0
	c.nodeNames = []string{"0"}
	return c
}

// Node interns a node name and returns its index.
func (c *Circuit) Node(name string) int {
	if i, ok := c.nodeIndex[name]; ok {
		return i
	}
	i := len(c.nodeNames)
	c.nodeIndex[name] = i
	c.nodeNames = append(c.nodeNames, name)
	return i
}

// NodeCount returns the number of nodes including ground.
func (c *Circuit) NodeCount() int { return len(c.nodeNames) }

// NodeName returns the interned name of node i.
func (c *Circuit) NodeName(i int) string { return c.nodeNames[i] }

// HasNode reports whether the node name exists.
func (c *Circuit) HasNode(name string) bool {
	_, ok := c.nodeIndex[name]
	return ok
}

// AddR adds a resistor.
func (c *Circuit) AddR(name, a, b string, r float64) {
	c.Resistors = append(c.Resistors, Resistor{Name: name, A: c.Node(a), B: c.Node(b), R: r})
}

// AddC adds a capacitor.
func (c *Circuit) AddC(name, a, b string, f float64) {
	c.Capacitors = append(c.Capacitors, Capacitor{Name: name, A: c.Node(a), B: c.Node(b), C: f})
}

// AddV adds a voltage source and returns its index (for current probing).
func (c *Circuit) AddV(name, p, n string, w Waveform) int {
	c.VSources = append(c.VSources, VSource{Name: name, P: c.Node(p), N: c.Node(n), W: w})
	return len(c.VSources) - 1
}

// AddI adds a current source.
func (c *Circuit) AddI(name, p, n string, w Waveform) {
	c.ISources = append(c.ISources, ISource{Name: name, P: c.Node(p), N: c.Node(n), W: w})
}

// AddFET adds a transistor and its model capacitances.
func (c *Circuit) AddFET(name, d, g, s string, p device.FETParams) {
	c.FETs = append(c.FETs, FET{Name: name, D: c.Node(d), G: c.Node(g), S: c.Node(s), P: p})
	if p.CGate > 0 {
		c.AddC(name+".cg", g, "0", p.CGate)
	}
	if p.CDrain > 0 {
		c.AddC(name+".cd", d, "0", p.CDrain)
	}
}

// Clone returns a variant copy for per-lane FET perturbation: the node
// tables and the linear elements (resistors, capacitors, sources) are
// shared read-only with the receiver, and only the FETs slice — the
// mutation surface of variation ensembles, which perturb the I-V law
// but never the stamped capacitances — is copied. A clone therefore
// has the receiver's exact topology, so it runs on a plan-sharing
// Batch lane without replanning, and restoring its FETs from the
// prototype (RestoreFETs) resets it completely.
func (c *Circuit) Clone() *Circuit {
	out := *c
	out.FETs = append([]FET(nil), c.FETs...)
	return &out
}

// RestoreFETs copies the prototype's FET models back into the circuit,
// undoing per-lane perturbations without reallocating. The two
// circuits must have the same device count (clones of one prototype
// always do).
func (c *Circuit) RestoreFETs(proto *Circuit) {
	copy(c.FETs, proto.FETs)
}

// String summarizes the circuit.
func (c *Circuit) String() string {
	return fmt.Sprintf("circuit{%d nodes, %dR %dC %dV %dI %dFET}",
		c.NodeCount(), len(c.Resistors), len(c.Capacitors),
		len(c.VSources), len(c.ISources), len(c.FETs))
}
