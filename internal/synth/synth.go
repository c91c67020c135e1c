// Package synth provides the front of the logic-to-GDSII flow: a small
// structural netlist model, a text netlist parser, a NAND/INV technology
// mapper for combinational expressions, the compiled netlist form
// (Compile) that bit-parallel simulation and static timing share, and
// logic-level verification of mapped netlists against their
// specification.
package synth

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"cnfetdk/internal/logic"
)

// Instance is one placed gate.
type Instance struct {
	Name string
	Cell string // library full name, e.g. "NAND2_2X"
	// Conns maps cell formal pins (A, B, ..., OUT) to net names.
	Conns map[string]string
}

// Netlist is a flat gate-level design.
type Netlist struct {
	Name      string
	Inputs    []string
	Outputs   []string
	Instances []Instance
}

// Nets returns all net names in deterministic order.
func (n *Netlist) Nets() []string {
	nets, _ := n.internNets()
	return nets
}

// internNets returns the sorted distinct net names (primary inputs and
// every connection) and each name's index in that list.
func (n *Netlist) internNets() ([]string, map[string]int32) {
	size := len(n.Inputs)
	for _, inst := range n.Instances {
		size += len(inst.Conns)
	}
	id := make(map[string]int32, size)
	out := make([]string, 0, size)
	add := func(s string) {
		if _, ok := id[s]; !ok {
			id[s] = 0
			out = append(out, s)
		}
	}
	for _, in := range n.Inputs {
		add(in)
	}
	for _, inst := range n.Instances {
		for _, net := range inst.Conns {
			add(net)
		}
	}
	slices.Sort(out)
	for i, s := range out {
		id[s] = int32(i)
	}
	return out, id
}

// FanoutCount returns how many instance inputs each net drives.
func (n *Netlist) FanoutCount() map[string]int {
	out := map[string]int{}
	for _, inst := range n.Instances {
		for pin, net := range inst.Conns {
			if pin != "OUT" {
				out[net]++
			}
		}
	}
	return out
}

// Parse reads the tiny structural format:
//
//	module NAME
//	input A B Cin
//	output Sum Carry
//	u1 NAND2_2X A=A B=B OUT=n1
//	...
//	endmodule
//
// Lines starting with # are comments.
func Parse(r io.Reader) (*Netlist, error) {
	n := &Netlist{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "module":
			if len(f) != 2 {
				return nil, fmt.Errorf("synth: line %d: module needs a name", lineNo)
			}
			n.Name = f[1]
		case "endmodule":
			if n.Name == "" {
				return nil, fmt.Errorf("synth: line %d: endmodule without module", lineNo)
			}
			return n, sc.Err()
		case "input":
			n.Inputs = append(n.Inputs, f[1:]...)
		case "output":
			n.Outputs = append(n.Outputs, f[1:]...)
		default:
			if len(f) < 3 {
				return nil, fmt.Errorf("synth: line %d: malformed instance", lineNo)
			}
			inst := Instance{Name: f[0], Cell: f[1], Conns: map[string]string{}}
			for _, kv := range f[2:] {
				parts := strings.SplitN(kv, "=", 2)
				if len(parts) != 2 {
					return nil, fmt.Errorf("synth: line %d: bad pin binding %q", lineNo, kv)
				}
				inst.Conns[parts[0]] = parts[1]
			}
			n.Instances = append(n.Instances, inst)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n.Name == "" {
		return nil, fmt.Errorf("synth: missing module header")
	}
	return n, nil
}

// Format renders the netlist in the Parse format.
func (n *Netlist) Format(w io.Writer) error {
	fmt.Fprintf(w, "module %s\n", n.Name)
	if len(n.Inputs) > 0 {
		fmt.Fprintf(w, "input %s\n", strings.Join(n.Inputs, " "))
	}
	if len(n.Outputs) > 0 {
		fmt.Fprintf(w, "output %s\n", strings.Join(n.Outputs, " "))
	}
	for _, inst := range n.Instances {
		pins := make([]string, 0, len(inst.Conns))
		for p := range inst.Conns {
			pins = append(pins, p)
		}
		sort.Strings(pins)
		parts := []string{inst.Name, inst.Cell}
		for _, p := range pins {
			parts = append(parts, p+"="+inst.Conns[p])
		}
		fmt.Fprintln(w, strings.Join(parts, " "))
	}
	_, err := fmt.Fprintln(w, "endmodule")
	return err
}

// CellFunctions maps library cell base names to their pull-down functions
// for logic-level evaluation; the output is the complement.
var CellFunctions = map[string]string{
	"INV":   "A",
	"NAND2": "AB",
	"NAND3": "ABC",
	"NOR2":  "A+B",
	"NOR3":  "A+B+C",
	"AOI21": "AB+C",
	"AOI22": "AB+CD",
	"AOI31": "ABC+D",
	"OAI21": "(A+B)C",
	"OAI22": "(A+B)(C+D)",
}

// baseName strips the drive suffix: "NAND2_2X" -> "NAND2".
func baseName(cell string) string {
	if i := strings.LastIndex(cell, "_"); i > 0 {
		return cell[:i]
	}
	return cell
}

// Evaluate computes every net's value under one input assignment: one
// lane of Compile(n).Simulate.
func (n *Netlist) Evaluate(in map[string]bool) (map[string]bool, error) {
	words := make([]uint64, len(n.Inputs))
	for k, name := range n.Inputs {
		v, ok := in[name]
		if !ok {
			return nil, fmt.Errorf("synth: input %q not assigned", name)
		}
		if v {
			words[k] = 1
		}
	}
	c, err := Compile(n)
	if err != nil {
		return nil, err
	}
	vals := make([]uint64, c.Slots())
	c.Simulate(words, vals)
	out := make(map[string]bool, len(c.Nets))
	for id, name := range c.Nets {
		out[name] = vals[id]&1 == 1
	}
	return out, nil
}

// Verify checks the netlist implements the given output functions over the
// primary inputs (exhaustively).
func (n *Netlist) Verify(spec map[string]*logic.Expr) error {
	rows := 1 << len(n.Inputs)
	return n.verifyVectors(spec, rows, func(i int) uint64 { return uint64(i) })
}

// VerifySampled checks the netlist against the spec on a deterministic
// sample of input vectors: the all-zero/all-one corners, every
// single-bit-set vector, and pseudo-random vectors drawn from a fixed
// linear-congruential sequence until samples distinct vectors were
// tried. For wide circuits (the 17-input rca8, larger multipliers) this
// replaces the 2^inputs exhaustive scan that would dominate the netlist
// stage; samples >= 2^inputs degrades to the exhaustive Verify.
func (n *Netlist) VerifySampled(spec map[string]*logic.Expr, samples int) error {
	seq := sampleVectors(len(n.Inputs), samples)
	if seq == nil {
		return n.Verify(spec)
	}
	return n.verifyVectors(spec, len(seq), func(i int) uint64 { return seq[i] })
}

// sampleVectors returns VerifySampled's vector sequence over bits
// inputs, or nil when samples calls for the exhaustive scan.
func sampleVectors(bits, samples int) []uint64 {
	if bits < 63 && (samples <= 0 || 1<<uint(bits) <= samples) {
		return nil
	}
	rows := uint64(1) << uint(bits)
	tried := make(map[uint64]bool, samples)
	var seq []uint64
	try := func(v uint64) {
		if !tried[v] {
			tried[v] = true
			seq = append(seq, v)
		}
	}
	try(0)
	try(rows - 1)
	for k := 0; k < bits; k++ {
		try(uint64(1) << uint(k))
	}
	// Fixed-seed LCG (Numerical Recipes constants): the sample is part
	// of the circuit's contract, so it must be reproducible everywhere.
	x := uint64(0x9E3779B97F4A7C15)
	for len(seq) < samples {
		x = x*6364136223846793005 + 1442695040888963407
		try(x >> (64 - uint(bits)))
	}
	return seq
}

// verifyVectors checks the spec on count input vectors, vector(i) being
// sample i (bit k drives input k). Samples are packed 64 to a word in
// order and simulated bit-parallel; a failure names the lowest failing
// sample and, on it, the first failing output in sorted order.
func (n *Netlist) verifyVectors(spec map[string]*logic.Expr, count int, vector func(i int) uint64) error {
	c, err := Compile(n)
	if err != nil {
		return err
	}
	outs := make([]string, 0, len(spec))
	for o := range spec {
		outs = append(outs, o)
	}
	sort.Strings(outs)
	ids := make([]int32, len(outs))
	exprs := make([]*logic.Expr, len(outs))
	for j, o := range outs {
		id, ok := c.NetID(o)
		if !ok {
			return fmt.Errorf("synth: output %q undriven", o)
		}
		ids[j], exprs[j] = id, spec[o]
	}
	prog, err := logic.CompileWords(n.Inputs, exprs...)
	if err != nil {
		return fmt.Errorf("synth: spec: %w", err)
	}
	in := make([]uint64, len(n.Inputs))
	vals := make([]uint64, c.Slots())
	want := make([]uint64, prog.Slots)
	for base := 0; base < count; base += 64 {
		lanes := min(64, count-base)
		clear(in)
		for l := 0; l < lanes; l++ {
			v := vector(base + l)
			for k := range in {
				in[k] |= (v >> uint(k) & 1) << uint(l)
			}
		}
		c.Simulate(in, vals)
		copy(want, in)
		logic.RunWords(prog.Ops, want)
		mask := ^uint64(0) >> uint(64-lanes)
		bad := uint64(0)
		for j, id := range ids {
			bad |= (vals[id] ^ want[prog.Roots[j]]) & mask
		}
		if bad == 0 {
			continue
		}
		l := uint(bits.TrailingZeros64(bad))
		for j, id := range ids {
			got, exp := vals[id]>>l&1 == 1, want[prog.Roots[j]]>>l&1 == 1
			if got != exp {
				return fmt.Errorf("synth: output %q wrong on vector %b: got %v want %v",
					outs[j], vector(base+int(l)), got, exp)
			}
		}
	}
	return nil
}
