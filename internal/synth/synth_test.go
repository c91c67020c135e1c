package synth

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"cnfetdk/internal/logic"
)

func TestParseAndFormatRoundTrip(t *testing.T) {
	src := `# a comment
module top
input A B
output Y
u1 NAND2_1X A=A B=B OUT=n1
u2 INV_1X A=n1 OUT=Y
endmodule
`
	n, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "top" || len(n.Instances) != 2 {
		t.Fatalf("parsed %+v", n)
	}
	var buf bytes.Buffer
	if err := n.Format(&buf); err != nil {
		t.Fatal(err)
	}
	n2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n2.Name != n.Name || len(n2.Instances) != len(n.Instances) {
		t.Fatal("round trip mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"input A\nendmodule",               // no module
		"module m\nu1\nendmodule",          // malformed instance
		"module m\nu1 INV_1X A\nendmodule", // bad binding
	} {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestEvaluateAndGate(t *testing.T) {
	n := &Netlist{
		Name:   "and2",
		Inputs: []string{"A", "B"},
		Instances: []Instance{
			{Name: "u1", Cell: "NAND2_1X", Conns: map[string]string{"A": "A", "B": "B", "OUT": "n1"}},
			{Name: "u2", Cell: "INV_1X", Conns: map[string]string{"A": "n1", "OUT": "Y"}},
		},
		Outputs: []string{"Y"},
	}
	if err := n.Verify(map[string]*logic.Expr{"Y": logic.MustParse("AB")}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateCyclicFails(t *testing.T) {
	n := &Netlist{
		Name:   "cycle",
		Inputs: []string{"A"},
		Instances: []Instance{
			{Name: "u1", Cell: "NAND2_1X", Conns: map[string]string{"A": "A", "B": "q", "OUT": "q"}},
		},
	}
	if _, err := n.Evaluate(map[string]bool{"A": true}); err == nil {
		t.Fatal("cyclic netlist must be rejected")
	}
}

func TestFullAdderVerifies(t *testing.T) {
	fa := FullAdder()
	if err := fa.Verify(FullAdderSpec()); err != nil {
		t.Fatal(err)
	}
	// Fig 8(a): nine 2X NAND2 gates plus the buffer inverters.
	nands, invs := 0, 0
	for _, inst := range fa.Instances {
		switch baseName(inst.Cell) {
		case "NAND2":
			nands++
			if inst.Cell != "NAND2_2X" {
				t.Errorf("%s: NAND2 gates are 2X in the case study", inst.Name)
			}
		case "INV":
			invs++
		}
	}
	if nands != 9 {
		t.Fatalf("NAND2 count = %d, want 9", nands)
	}
	if invs != 6 {
		t.Fatalf("INV count = %d, want 6", invs)
	}
}

func TestVerifySampledDegradesToExhaustive(t *testing.T) {
	// 3 inputs, 8 vectors: any samples >= 8 (or 0) must run the full scan
	// and therefore agree with Verify on a correct netlist.
	fa := FullAdder()
	for _, samples := range []int{0, 8, 100} {
		if err := fa.VerifySampled(FullAdderSpec(), samples); err != nil {
			t.Fatalf("samples=%d: %v", samples, err)
		}
	}
}

func TestVerifySampledCatchesWrongNetlist(t *testing.T) {
	// A 17-input adder with one full-adder's Sum and Carry swapped: the
	// corner vectors alone (all-ones has every stage generating a carry)
	// must expose it even at a tiny sample count.
	nl := RippleCarryAdder(8)
	for i := range nl.Instances {
		c := nl.Instances[i].Conns
		if c["OUT"] == "S3" {
			c["OUT"] = "C4"
		} else if c["OUT"] == "C4" {
			c["OUT"] = "S3"
		}
	}
	if err := nl.VerifySampled(RippleCarryAdderSpec(8), 64); err == nil {
		t.Fatal("sampled verification missed a swapped Sum/Carry")
	}
}

// TestVerifyFailureDeterministic: a broken netlist fails with the same
// message on every run — the lowest failing sample, then the first
// failing output in sorted order — whatever the spec map's order.
func TestVerifyFailureDeterministic(t *testing.T) {
	nl := RippleCarryAdder(8)
	for i := range nl.Instances {
		if nl.Instances[i].Cell == "NAND2_2X" {
			nl.Instances[i].Cell = "NOR2_2X"
			break
		}
	}
	first := nl.VerifySampled(RippleCarryAdderSpec(8), 4096)
	if first == nil {
		t.Fatal("sampled verification missed a NAND2->NOR2 swap")
	}
	for run := 0; run < 20; run++ {
		if err := nl.VerifySampled(RippleCarryAdderSpec(8), 4096); err == nil || err.Error() != first.Error() {
			t.Fatalf("run %d: %v, want %v", run, err, first)
		}
	}
}

func TestCompileRejects(t *testing.T) {
	inv := func(name, in, out string) Instance {
		return Instance{Name: name, Cell: "INV_1X", Conns: map[string]string{"A": in, "OUT": out}}
	}
	for _, tc := range []struct {
		name  string
		insts []Instance
		want  string
	}{
		{"unknown cell", []Instance{{Name: "u1", Cell: "XOR2_1X", Conns: map[string]string{"A": "A", "OUT": "Y"}}}, "unknown cell"},
		{"unbound pin", []Instance{{Name: "u1", Cell: "NAND2_1X", Conns: map[string]string{"A": "A", "OUT": "Y"}}}, "unbound"},
		{"no OUT", []Instance{{Name: "u1", Cell: "INV_1X", Conns: map[string]string{"A": "A"}}}, "no OUT"},
		{"multiply driven", []Instance{inv("u1", "A", "Y"), inv("u2", "A", "Y")}, "driven by both"},
		{"driven input", []Instance{inv("u1", "Y", "A")}, "primary input"},
		{"undriven", []Instance{inv("u1", "ghost", "Y")}, "undriven"},
		{"cycle", []Instance{inv("u1", "q", "p"), inv("u2", "p", "q")}, "cyclic"},
	} {
		nl := &Netlist{Name: tc.name, Inputs: []string{"A"}, Outputs: []string{"Y"}, Instances: tc.insts}
		if _, err := Compile(nl); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Compile err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestCompiledStructure pins the IR's layout on the full adder: nets in
// Nets order, one driver per gate output, sorted instance pins, CSR
// readers, and levels that respect every edge.
func TestCompiledStructure(t *testing.T) {
	fa := FullAdder()
	c, err := Compile(fa)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c.Nets, fa.Nets()) {
		t.Fatalf("Nets = %v, want %v", c.Nets, fa.Nets())
	}
	level := make([]int, len(c.Insts))
	for l := 0; l+1 < len(c.LevelStart); l++ {
		for _, i := range c.LevelOrder[c.LevelStart[l]:c.LevelStart[l+1]] {
			level[i] = l
		}
	}
	for i, ci := range c.Insts {
		if c.Driver[ci.Out] != int32(i) {
			t.Fatalf("%s: driver of its output = %d", ci.Name, c.Driver[ci.Out])
		}
		if !slices.IsSorted(ci.PinNames) {
			t.Fatalf("%s: pins %v not sorted", ci.Name, ci.PinNames)
		}
		for k, net := range ci.PinNets {
			if c.Nets[net] != fa.Instances[i].Conns[ci.PinNames[k]] {
				t.Fatalf("%s.%s bound to %s", ci.Name, ci.PinNames[k], c.Nets[net])
			}
			if !slices.Contains(c.FanEdges[c.FanStart[net]:c.FanStart[net+1]], int32(i)) {
				t.Fatalf("%s missing from the readers of %s", ci.Name, c.Nets[net])
			}
			if d := c.Driver[net]; d >= 0 && level[d] >= level[i] {
				t.Fatalf("%s (level %d) reads %s driven at level %d", ci.Name, level[i], c.Nets[net], level[d])
			}
		}
	}
}

func TestVerifySampledRCA8(t *testing.T) {
	nl := RippleCarryAdder(8)
	if err := nl.VerifySampled(RippleCarryAdderSpec(8), 256); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeSimple(t *testing.T) {
	out := map[string]*logic.Expr{
		"Y": logic.MustParse("AB+C"),
	}
	n, err := Synthesize("aoi", out)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Instances) == 0 {
		t.Fatal("empty netlist")
	}
	// Verify was already run inside Synthesize; double-check.
	if err := n.Verify(out); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeXorShares(t *testing.T) {
	// a⊕b twice: structural sharing should not duplicate the cone.
	e := logic.MustParse("A*B' + A'*B")
	single, err := Synthesize("x1", map[string]*logic.Expr{"Y": e})
	if err != nil {
		t.Fatal(err)
	}
	double, err := Synthesize("x2", map[string]*logic.Expr{"Y": e, "Z": e})
	if err != nil {
		t.Fatal(err)
	}
	// The second output should reuse nearly the whole cone (just a buffer
	// or rename, not a full recompute).
	if len(double.Instances) > len(single.Instances)+3 {
		t.Fatalf("sharing failed: %d vs %d instances", len(double.Instances), len(single.Instances))
	}
}

func TestSynthesizeFullAdderFunctions(t *testing.T) {
	n, err := Synthesize("fa", FullAdderSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Verify(FullAdderSpec()); err != nil {
		t.Fatal(err)
	}
	// Everything must be NAND2/INV.
	for _, inst := range n.Instances {
		b := baseName(inst.Cell)
		if b != "NAND2" && b != "INV" {
			t.Fatalf("unexpected cell %s", inst.Cell)
		}
	}
}

func TestSizeByFanout(t *testing.T) {
	n := &Netlist{
		Name:   "fan",
		Inputs: []string{"A"},
		Instances: []Instance{
			{Name: "u0", Cell: "INV_1X", Conns: map[string]string{"A": "A", "OUT": "h"}},
			{Name: "u1", Cell: "INV_1X", Conns: map[string]string{"A": "h", "OUT": "y1"}},
			{Name: "u2", Cell: "INV_1X", Conns: map[string]string{"A": "h", "OUT": "y2"}},
			{Name: "u3", Cell: "INV_1X", Conns: map[string]string{"A": "h", "OUT": "y3"}},
			{Name: "u4", Cell: "INV_1X", Conns: map[string]string{"A": "h", "OUT": "y4"}},
		},
	}
	SizeByFanout(n)
	if n.Instances[0].Cell != "INV_4X" {
		t.Fatalf("driver of fanout-4 net = %s, want INV_4X", n.Instances[0].Cell)
	}
	if n.Instances[1].Cell != "INV_1X" {
		t.Fatalf("leaf cell = %s, want INV_1X", n.Instances[1].Cell)
	}
}

func TestNetsAndFanout(t *testing.T) {
	fa := FullAdder()
	nets := fa.Nets()
	if len(nets) == 0 {
		t.Fatal("no nets")
	}
	fan := fa.FanoutCount()
	if fan["n1"] != 3 { // n1 feeds g2, g3, g9
		t.Fatalf("fanout(n1) = %d, want 3", fan["n1"])
	}
}
