package synth

import (
	"fmt"
	"slices"
	"sync"

	"cnfetdk/internal/logic"
)

// Compiled is a netlist lowered once into dense form: interned net ids,
// a driver table, CSR fan-out, Kahn levels, and every instance's cell
// function as flat word-wide instructions in topological order. It is
// the one representation both logic simulation (Simulate, Evaluate,
// Verify) and static timing (sta.Engine) run on. A Compiled is
// immutable, so any number of goroutines may share it; its exported
// slices must not be modified.
type Compiled struct {
	// Nets lists the net names in Netlist.Nets order; a net's id is its
	// index.
	Nets []string
	// Inputs and Outputs are the primary ports' net ids in declaration
	// order; an output connected to nothing is omitted.
	Inputs, Outputs []int32
	// Insts holds the instances in netlist order.
	Insts []CompiledInst
	// Driver[id] is the instance driving net id, -1 for a primary input.
	Driver []int32
	// FanEdges[FanStart[id]:FanStart[id+1]] lists the instances reading
	// net id, one entry per reading pin, in instance order.
	FanStart, FanEdges []int32
	// LevelOrder lists every instance in topological order, and
	// LevelOrder[LevelStart[l]:LevelStart[l+1]] is level l: the
	// instances one past the deepest driver of their inputs (0 when fed
	// by primary inputs only), in netlist order.
	LevelStart, LevelOrder []int32

	netID map[string]int32
	ops   []logic.WordOp
	slots int
}

// CompiledInst is one instance in compiled coordinates.
type CompiledInst struct {
	Name, Cell string
	Out        int32
	// PinNames are the input pins (every pin but OUT) in sorted order,
	// and PinNets their nets.
	PinNames []string
	PinNets  []int32
}

// cellProgram is one CellFunctions entry lowered for simulation: the
// output function f' over the sorted pin variables.
type cellProgram struct {
	pins []string
	prog *logic.WordProgram
}

// cellPrograms parses and lowers CellFunctions once per process.
var cellPrograms = sync.OnceValue(func() map[string]cellProgram {
	out := make(map[string]cellProgram, len(CellFunctions))
	for base, f := range CellFunctions {
		e := logic.MustParse(f)
		pins := e.Vars()
		prog, err := logic.CompileWords(pins, logic.Not(e)) // cells are inverting
		if err != nil {
			panic(fmt.Sprintf("synth: cell function %s: %v", base, err))
		}
		out[base] = cellProgram{pins: pins, prog: prog}
	}
	return out
})

// Compile lowers the netlist into its compiled form. It rejects unknown
// cells, unbound function pins, instances without an OUT pin,
// multiply-driven nets, driven primary inputs, undriven nets and
// combinational cycles.
func Compile(n *Netlist) (*Compiled, error) {
	progs := cellPrograms()
	nets, netID := n.internNets()
	nn := len(nets)
	c := &Compiled{
		Nets:   nets,
		Insts:  make([]CompiledInst, len(n.Instances)),
		Driver: make([]int32, nn),
		netID:  netID,
	}
	for i := range c.Driver {
		c.Driver[i] = -1
	}

	npins := 0
	for _, inst := range n.Instances {
		npins += len(inst.Conns)
	}
	pinNames := make([]string, 0, npins)
	pinNets := make([]int32, 0, npins)
	progOf := make([]cellProgram, len(n.Instances))
	for idx, inst := range n.Instances {
		cp, ok := progs[baseName(inst.Cell)]
		if !ok {
			return nil, fmt.Errorf("synth: %s: unknown cell %q", inst.Name, inst.Cell)
		}
		for _, p := range cp.pins {
			if _, ok := inst.Conns[p]; !ok {
				return nil, fmt.Errorf("synth: %s: pin %s unbound", inst.Name, p)
			}
		}
		outNet, ok := inst.Conns["OUT"]
		if !ok {
			return nil, fmt.Errorf("synth: %s: no OUT pin", inst.Name)
		}
		out := c.netID[outNet]
		if d := c.Driver[out]; d >= 0 {
			return nil, fmt.Errorf("synth: net %q driven by both %q and %q",
				outNet, n.Instances[d].Name, inst.Name)
		}
		c.Driver[out] = int32(idx)

		start := len(pinNames)
		for p := range inst.Conns {
			if p != "OUT" {
				pinNames = append(pinNames, p)
			}
		}
		slices.Sort(pinNames[start:])
		for _, p := range pinNames[start:] {
			pinNets = append(pinNets, c.netID[inst.Conns[p]])
		}
		c.Insts[idx] = CompiledInst{
			Name:     inst.Name,
			Cell:     inst.Cell,
			Out:      out,
			PinNames: pinNames[start:len(pinNames):len(pinNames)],
			PinNets:  pinNets[start:len(pinNets):len(pinNets)],
		}
		progOf[idx] = cp
	}

	isInput := make([]bool, nn)
	c.Inputs = make([]int32, len(n.Inputs))
	for k, in := range n.Inputs {
		id := c.netID[in]
		if d := c.Driver[id]; d >= 0 {
			return nil, fmt.Errorf("synth: primary input %q is driven by %q", in, n.Instances[d].Name)
		}
		isInput[id] = true
		c.Inputs[k] = id
	}
	for _, o := range n.Outputs {
		if id, ok := c.netID[o]; ok {
			c.Outputs = append(c.Outputs, id)
		}
	}
	for _, inst := range c.Insts {
		for _, net := range inst.PinNets {
			if c.Driver[net] < 0 && !isInput[net] {
				return nil, fmt.Errorf("synth: net %q is undriven", nets[net])
			}
		}
	}

	c.buildFanout()
	if err := c.levelize(); err != nil {
		return nil, err
	}
	c.lower(n, progOf)
	return c, nil
}

// buildFanout fills the CSR reader lists, in instance order.
func (c *Compiled) buildFanout() {
	nn := len(c.Nets)
	c.FanStart = make([]int32, nn+1)
	for _, inst := range c.Insts {
		for _, net := range inst.PinNets {
			c.FanStart[net+1]++
		}
	}
	for i := 0; i < nn; i++ {
		c.FanStart[i+1] += c.FanStart[i]
	}
	c.FanEdges = make([]int32, c.FanStart[nn])
	fill := slices.Clone(c.FanStart[:nn])
	for idx, inst := range c.Insts {
		for _, net := range inst.PinNets {
			c.FanEdges[fill[net]] = int32(idx)
			fill[net]++
		}
	}
}

// levelize is Kahn's algorithm over instances. A residue after the
// queue drains is a combinational cycle. Instances are then bucketed by
// level in netlist order, so the schedule does not depend on pop order.
func (c *Compiled) levelize() error {
	ni := len(c.Insts)
	level := make([]int32, ni)
	indeg := make([]int32, ni)
	queue := make([]int32, 0, ni)
	for idx, inst := range c.Insts {
		for _, net := range inst.PinNets {
			if c.Driver[net] >= 0 {
				indeg[idx]++
			}
		}
		if indeg[idx] == 0 {
			queue = append(queue, int32(idx))
		}
	}
	maxLevel := int32(-1)
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		lv := int32(0)
		for _, net := range c.Insts[i].PinNets {
			if d := c.Driver[net]; d >= 0 && level[d]+1 > lv {
				lv = level[d] + 1
			}
		}
		level[i] = lv
		maxLevel = max(maxLevel, lv)
		out := c.Insts[i].Out
		for _, r := range c.FanEdges[c.FanStart[out]:c.FanStart[out+1]] {
			if indeg[r]--; indeg[r] == 0 {
				queue = append(queue, r)
			}
		}
	}
	if len(queue) != ni {
		return fmt.Errorf("synth: netlist is cyclic (%d of %d instances levelize)", len(queue), ni)
	}

	c.LevelStart = make([]int32, maxLevel+2)
	for _, lv := range level {
		c.LevelStart[lv+1]++
	}
	for l := 0; l+1 < len(c.LevelStart); l++ {
		c.LevelStart[l+1] += c.LevelStart[l]
	}
	c.LevelOrder = make([]int32, ni)
	fill := slices.Clone(c.LevelStart[:maxLevel+1])
	for idx, lv := range level {
		c.LevelOrder[fill[lv]] = int32(idx)
		fill[lv]++
	}
	return nil
}

// lower relocates each instance's cell program into one instruction
// stream in level order: pin variables read their nets, the result
// lands on the output net, and temporaries share scratch slots past the
// nets (an instance's temporaries are dead once it finishes).
func (c *Compiled) lower(n *Netlist, progOf []cellProgram) {
	scratch := int32(len(c.Nets))
	nops, temps := 0, 0
	for _, cp := range progOf {
		nops += len(cp.prog.Ops) + 1
		temps = max(temps, cp.prog.Slots)
	}
	c.ops = make([]logic.WordOp, 0, nops)
	c.slots = len(c.Nets) + temps
	for _, i := range c.LevelOrder {
		p, pins, inst := progOf[i].prog, progOf[i].pins, &n.Instances[i]
		root := p.Roots[0]
		reloc := func(s int32) int32 {
			switch {
			case int(s) < len(pins):
				return c.netID[inst.Conns[pins[s]]]
			case s == root:
				return c.Insts[i].Out
			}
			return scratch + s
		}
		for _, o := range p.Ops {
			c.ops = append(c.ops, logic.WordOp{Code: o.Code, Dst: reloc(o.Dst), A: reloc(o.A), B: reloc(o.B)})
		}
		if int(root) < len(pins) {
			// The function reduces to one of its pins: copy it.
			a := reloc(root)
			c.ops = append(c.ops, logic.WordOp{Code: logic.WOr, Dst: c.Insts[i].Out, A: a, B: a})
		}
	}
}

// NetID returns the id of the named net.
func (c *Compiled) NetID(name string) (int32, bool) {
	id, ok := c.netID[name]
	return id, ok
}

// Slots is the length of the value buffer Simulate fills: one word per
// net (indexed by net id) followed by scratch.
func (c *Compiled) Slots() int { return c.slots }

// Simulate evaluates 64 input vectors at once, one per bit: in[k] packs
// primary input k (netlist Inputs order), and on return vals[id] packs
// net id under the same vectors. vals must hold Slots words. Simulate
// does not allocate.
func (c *Compiled) Simulate(in, vals []uint64) {
	vals = vals[:c.slots]
	for k, id := range c.Inputs {
		vals[id] = in[k]
	}
	logic.RunWords(c.ops, vals)
}
