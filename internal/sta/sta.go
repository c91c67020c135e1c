// Package sta is the design kit's static timing engine: a levelized DAG
// over the mapped netlist evaluated against the characterized (Liberty)
// NLDM models — slew-aware table lookups at the actual output load
// (receiver input pins plus extracted wire), arrival and transition
// times propagated level by level, and the critical path traced back.
//
// The Engine is built once per netlist, on synth.Compile's interned
// ids, CSR adjacency and Kahn levels, and then reanalyzed
// allocation-free in steady state; SetLoad/SetCell/Invalidate dirty
// only the fan-out cone of the change, so an N-point timing sweep costs
// one build plus N cone repropagations instead of N transistor-level
// transients.
package sta

import (
	"context"
	"fmt"
	"math"

	"cnfetdk/internal/liberty"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/synth"
)

// DefaultInputSlewS is the transition time assumed on primary inputs:
// the 5 ps edge every characterization testbench and flow stimulus
// drives (cells.DefaultSlewS).
const DefaultInputSlewS = 5e-12

// Result is a full-design timing report — a snapshot of an Engine's
// state (Engine.Report), or a one-shot analysis (Analyze).
type Result struct {
	// Arrival maps every net to its worst arrival time (s); primary
	// inputs are 0.
	Arrival map[string]float64
	// WorstNet names the latest primary output (the latest net overall
	// when the netlist declares no outputs).
	WorstNet string
	// WorstArrivalS is WorstNet's arrival time — the design delay.
	WorstArrivalS float64
	// CriticalPath lists nets from a primary input to WorstNet.
	CriticalPath []string
	// InstanceDelay records, per instance, the delay of the arc on that
	// instance's own worst input path — not the worst arc over all pins,
	// so summing the critical path's instances reproduces WorstArrivalS.
	InstanceDelay map[string]float64
	// Levels is the design's logic depth (levelization bucket count).
	Levels int
}

// MaxArrival returns the design's worst arrival time.
func (r *Result) MaxArrival() float64 { return r.WorstArrivalS }

// Analyze runs one-shot STA over a combinational netlist. wireCapF adds
// per-net wire load (may be nil). Cells missing from the model cause an
// error. Repeated analysis should build an Engine instead.
func Analyze(nl *synth.Netlist, m *liberty.Model, wireCapF map[string]float64) (*Result, error) {
	e, err := NewEngine(nl, m, wireCapF)
	if err != nil {
		return nil, err
	}
	return e.Report(), nil
}

// pinRef is one instance input in engine coordinates.
type pinRef struct {
	name string
	net  int32
	arc  *liberty.Arc
	capF float64
}

// instRec is one instance in engine coordinates: its model, output net,
// and input pins in sorted pin-name order (the deterministic tie-break
// for worst-arc selection).
type instRec struct {
	cell *liberty.CellModel
	out  int32
	pins []pinRef
}

// Engine is a reusable, incrementally updatable timing analyzer over one
// netlist. All steady-state methods (Analyze, Reanalyze, SetLoad,
// SetCell, Invalidate, Delay) are allocation-free; Report allocates the
// map-based snapshot. An Engine is not safe for concurrent mutation.
type Engine struct {
	model *liberty.Model

	// c supplies net and instance ids, the driver table, CSR fan-out
	// (c.FanStart/c.FanEdges) and the level schedule
	// (c.LevelStart/c.LevelOrder).
	c    *synth.Compiled
	outs []int32 // report nets: primary outputs, or every net

	insts  []instRec
	instID map[string]int32

	inputSlewS float64

	wireF   []float64 // per net: extracted wire capacitance
	pinF    []float64 // per net: sum of receiver input-pin capacitances
	arrival []float64 // per net
	slew    []float64 // per net: transition time
	prevNet []int32   // per net: worst-path predecessor net, -1 = source

	instDelay []float64 // per instance: worst-path arc delay

	dirty   []bool
	pending bool
	touched int

	worstID int32
	worstAt float64
}

// NewEngine compiles the netlist (synth.Compile: interning, CSR
// fan-out, levelization), binds every instance pin to its NLDM arc, and
// runs the initial full analysis. wireCapF (may be nil) supplies
// per-net wire capacitance; nets absent from the netlist are ignored.
func NewEngine(nl *synth.Netlist, m *liberty.Model, wireCapF map[string]float64) (*Engine, error) {
	c, err := synth.Compile(nl)
	if err != nil {
		return nil, fmt.Errorf("sta: %w", err)
	}
	n := len(c.Nets)
	e := &Engine{
		model:      m,
		c:          c,
		inputSlewS: DefaultInputSlewS,
		wireF:      make([]float64, n),
		pinF:       make([]float64, n),
		arrival:    make([]float64, n),
		slew:       make([]float64, n),
		prevNet:    make([]int32, n),
		insts:      make([]instRec, len(c.Insts)),
		instID:     make(map[string]int32, len(c.Insts)),
		instDelay:  make([]float64, len(c.Insts)),
		dirty:      make([]bool, len(c.Insts)),
	}
	for i := range e.prevNet {
		e.prevNet[i] = -1
	}
	for net, capF := range wireCapF {
		if id, ok := c.NetID(net); ok {
			e.wireF[id] = capF
		}
	}

	npins := 0
	for _, ci := range c.Insts {
		npins += len(ci.PinNets)
	}
	pins := make([]pinRef, 0, npins)
	for idx, ci := range c.Insts {
		cm, ok := m.Cells[ci.Cell]
		if !ok {
			return nil, fmt.Errorf("sta: cell %q not characterized", ci.Cell)
		}
		e.instID[ci.Name] = int32(idx)
		start := len(pins)
		for k, pin := range ci.PinNames {
			arc := cm.Arc(pin)
			if arc == nil {
				return nil, fmt.Errorf("sta: %s has no arc for pin %s", ci.Cell, pin)
			}
			net := ci.PinNets[k]
			capF := cm.InputCapF[pin]
			pins = append(pins, pinRef{name: pin, net: net, arc: arc, capF: capF})
			e.pinF[net] += capF
		}
		e.insts[idx] = instRec{cell: cm, out: ci.Out, pins: pins[start:len(pins):len(pins)]}
	}

	if len(nl.Outputs) > 0 {
		e.outs = c.Outputs
	} else {
		e.outs = make([]int32, n)
		for i := range e.outs {
			e.outs[i] = int32(i)
		}
	}

	for i := range e.slew {
		e.slew[i] = e.inputSlewS
	}
	e.worstID = -1
	e.Analyze()
	return e, nil
}

// Levels returns the design's logic depth (levelization bucket count).
func (e *Engine) Levels() int { return len(e.c.LevelStart) - 1 }

// Instances returns the number of timed instances.
func (e *Engine) Instances() int { return len(e.insts) }

// Touched returns how many instances the last Analyze/Reanalyze
// re-evaluated — the fan-out cone size for incremental updates.
func (e *Engine) Touched() int { return e.touched }

// Delay returns the design's worst arrival time.
func (e *Engine) Delay() float64 { return e.worstAt }

// WorstNet names the latest report net (see Result.WorstNet).
func (e *Engine) WorstNet() string {
	if e.worstID < 0 {
		return ""
	}
	return e.c.Nets[e.worstID]
}

// evalInst recomputes one instance: the output net's arrival, slew and
// worst-path predecessor, plus the instance's worst-path arc delay. Pins
// are visited in sorted-name order, so ties resolve deterministically.
func (e *Engine) evalInst(i int32) {
	rec := &e.insts[i]
	load := e.pinF[rec.out] + e.wireF[rec.out]
	bestAt := math.Inf(-1)
	bestNet := int32(-1)
	bestDelay := 0.0
	bestSlew := e.inputSlewS
	for k := range rec.pins {
		p := &rec.pins[k]
		var d, outSlew float64
		if sf := p.arc.Surface; sf != nil {
			inSlew := e.slew[p.net]
			d = sf.Delay(inSlew, load)
			outSlew = sf.OutSlew(inSlew, load)
		} else {
			d = p.arc.Table.Interp(load)
			outSlew = e.inputSlewS
		}
		if at := e.arrival[p.net] + d; at > bestAt {
			bestAt, bestNet, bestDelay, bestSlew = at, p.net, d, outSlew
		}
	}
	e.arrival[rec.out] = bestAt
	e.slew[rec.out] = bestSlew
	e.prevNet[rec.out] = bestNet
	e.instDelay[i] = bestDelay
}

func (e *Engine) updateWorst() {
	e.worstID = -1
	e.worstAt = 0
	for _, o := range e.outs {
		if at := e.arrival[o]; e.worstID < 0 || at > e.worstAt {
			e.worstID = o
			e.worstAt = at
		}
	}
}

// Analyze runs a full propagation pass over every level in topological
// order — the sequential, allocation-free steady-state path. The engine
// is left clean (no pending invalidations).
func (e *Engine) Analyze() {
	for _, i := range e.c.LevelOrder {
		e.evalInst(i)
		e.dirty[i] = false
	}
	e.pending = false
	e.touched = len(e.insts)
	e.updateWorst()
}

// AnalyzeCtx is Analyze with level-parallel propagation: each level's
// instances fan out across the pipeline worker pool (<= 0 selects one
// worker per CPU). Instances within a level are independent — every
// evaluation writes only its own output slots — so results are identical
// to the sequential pass at any worker count.
func (e *Engine) AnalyzeCtx(ctx context.Context, workers int) error {
	for l := 0; l+1 < len(e.c.LevelStart); l++ {
		bucket := e.c.LevelOrder[e.c.LevelStart[l]:e.c.LevelStart[l+1]]
		if _, err := pipeline.MapCtx(ctx, workers, bucket, func(_ int, i int32) (struct{}, error) {
			e.evalInst(i)
			return struct{}{}, nil
		}); err != nil {
			return err
		}
	}
	for i := range e.dirty {
		e.dirty[i] = false
	}
	e.pending = false
	e.touched = len(e.insts)
	e.updateWorst()
	return nil
}

func (e *Engine) markDirty(i int32) {
	if !e.dirty[i] {
		e.dirty[i] = true
		e.pending = true
	}
}

// SetLoad replaces a net's wire capacitance and invalidates its driver
// (the only instance whose delay reads that load). The change takes
// effect at the next Reanalyze.
func (e *Engine) SetLoad(net string, wireCapF float64) error {
	id, ok := e.c.NetID(net)
	if !ok {
		return fmt.Errorf("sta: unknown net %q", net)
	}
	if e.wireF[id] == wireCapF {
		return nil
	}
	e.wireF[id] = wireCapF
	if d := e.c.Driver[id]; d >= 0 {
		e.markDirty(d)
	}
	return nil
}

// SetCell swaps an instance's cell (a drive-strength remap, say):
// the instance's arcs and input-pin capacitances update, and both the
// instance and the drivers of any net whose load changed are
// invalidated. The new cell must carry arcs for the same input pins.
func (e *Engine) SetCell(inst, cell string) error {
	i, ok := e.instID[inst]
	if !ok {
		return fmt.Errorf("sta: unknown instance %q", inst)
	}
	cm, ok := e.model.Cells[cell]
	if !ok {
		return fmt.Errorf("sta: cell %q not characterized", cell)
	}
	rec := &e.insts[i]
	if rec.cell == cm {
		return nil
	}
	if len(cm.InputCapF) != len(rec.pins) {
		return fmt.Errorf("sta: cell %q has %d inputs, instance %q has %d",
			cell, len(cm.InputCapF), inst, len(rec.pins))
	}
	for k := range rec.pins {
		if cm.Arc(rec.pins[k].name) == nil {
			return fmt.Errorf("sta: cell %q has no arc for pin %s", cell, rec.pins[k].name)
		}
	}
	for k := range rec.pins {
		p := &rec.pins[k]
		p.arc = cm.Arc(p.name)
		if capF := cm.InputCapF[p.name]; capF != p.capF {
			e.pinF[p.net] += capF - p.capF
			p.capF = capF
			if d := e.c.Driver[p.net]; d >= 0 {
				e.markDirty(d)
			}
		}
	}
	rec.cell = cm
	e.markDirty(i)
	return nil
}

// Invalidate force-dirties a net's driver and readers — the hook for
// changes the engine cannot see (a characterization refresh, say).
func (e *Engine) Invalidate(net string) error {
	id, ok := e.c.NetID(net)
	if !ok {
		return fmt.Errorf("sta: unknown net %q", net)
	}
	if d := e.c.Driver[id]; d >= 0 {
		e.markDirty(d)
	}
	for _, r := range e.c.FanEdges[e.c.FanStart[id]:e.c.FanStart[id+1]] {
		e.markDirty(r)
	}
	return nil
}

// Reanalyze repropagates exactly the dirty fan-out cone: dirty instances
// are re-evaluated in topological order, and an instance whose output
// arrival or slew actually moved dirties its readers. Returns the number
// of instances touched (0 when nothing was invalidated). Because every
// evaluation is a pure function of its fan-in, the state after Reanalyze
// is byte-identical to a full rebuild.
func (e *Engine) Reanalyze() int {
	e.touched = 0
	if !e.pending {
		return 0
	}
	for _, i := range e.c.LevelOrder {
		if !e.dirty[i] {
			continue
		}
		e.dirty[i] = false
		out := e.insts[i].out
		oldAt, oldSlew := e.arrival[out], e.slew[out]
		e.evalInst(i)
		e.touched++
		if e.arrival[out] != oldAt || e.slew[out] != oldSlew {
			for _, r := range e.c.FanEdges[e.c.FanStart[out]:e.c.FanStart[out+1]] {
				e.markDirty(r)
			}
		}
	}
	e.pending = false
	e.updateWorst()
	return e.touched
}

// Report snapshots the engine into a Result (this allocates; the
// analysis itself does not).
func (e *Engine) Report() *Result {
	r := &Result{
		Arrival:       make(map[string]float64, len(e.c.Nets)),
		InstanceDelay: make(map[string]float64, len(e.insts)),
		Levels:        e.Levels(),
	}
	for id, name := range e.c.Nets {
		r.Arrival[name] = e.arrival[id]
	}
	for i, ci := range e.c.Insts {
		r.InstanceDelay[ci.Name] = e.instDelay[i]
	}
	if e.worstID >= 0 {
		r.WorstNet = e.c.Nets[e.worstID]
		r.WorstArrivalS = e.worstAt
		for id := e.worstID; id >= 0; id = e.prevNet[id] {
			r.CriticalPath = append(r.CriticalPath, e.c.Nets[id])
		}
		for i, j := 0, len(r.CriticalPath)-1; i < j; i, j = i+1, j-1 {
			r.CriticalPath[i], r.CriticalPath[j] = r.CriticalPath[j], r.CriticalPath[i]
		}
	}
	return r
}
