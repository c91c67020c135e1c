package synth

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestRippleCarryAdder2Verifies(t *testing.T) {
	nl := RippleCarryAdder(2)
	if err := nl.Verify(RippleCarryAdderSpec(2)); err != nil {
		t.Fatal(err)
	}
	// 2 bits x 15 instances.
	if len(nl.Instances) != 30 {
		t.Fatalf("instances = %d, want 30", len(nl.Instances))
	}
	if len(nl.Inputs) != 5 || len(nl.Outputs) != 3 {
		t.Fatalf("ports = %d in / %d out", len(nl.Inputs), len(nl.Outputs))
	}
}

func TestRippleCarryAdder3Verifies(t *testing.T) {
	if testing.Short() {
		t.Skip("128-vector exhaustive check")
	}
	nl := RippleCarryAdder(3)
	if err := nl.Verify(RippleCarryAdderSpec(3)); err != nil {
		t.Fatal(err)
	}
}

func TestMux4Verifies(t *testing.T) {
	nl, err := Mux4()
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Instances) == 0 {
		t.Fatal("empty mux")
	}
	// Verify() already ran inside Synthesize; sanity-check one vector.
	vals, err := nl.Evaluate(map[string]bool{
		"D0": false, "D1": true, "D2": false, "D3": false,
		"S0": true, "S1": false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !vals["Y"] {
		t.Fatal("mux4 should select D1")
	}
}

func TestDecoder2Verifies(t *testing.T) {
	nl, err := Decoder2()
	if err != nil {
		t.Fatal(err)
	}
	vals, err := nl.Evaluate(map[string]bool{"En": true, "A": true, "B": false})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"Y0": false, "Y1": true, "Y2": false, "Y3": false}
	for o, v := range want {
		if vals[o] != v {
			t.Fatalf("decoder %s = %v, want %v", o, vals[o], v)
		}
	}
}

func TestArrayMultiplier2Verifies(t *testing.T) {
	nl := ArrayMultiplier(2)
	if err := nl.Verify(ArrayMultiplierSpec(2)); err != nil {
		t.Fatal(err)
	}
	if len(nl.Inputs) != 4 || len(nl.Outputs) != 4 {
		t.Fatalf("ports = %d in / %d out, want 4/4", len(nl.Inputs), len(nl.Outputs))
	}
}

func TestArrayMultiplier4Verifies(t *testing.T) {
	if testing.Short() {
		t.Skip("256-vector exhaustive check over ~170 instances")
	}
	nl := ArrayMultiplier(4)
	if err := nl.Verify(ArrayMultiplierSpec(4)); err != nil {
		t.Fatal(err)
	}
	if len(nl.Inputs) != 8 || len(nl.Outputs) != 8 {
		t.Fatalf("ports = %d in / %d out, want 8/8", len(nl.Inputs), len(nl.Outputs))
	}
	for _, out := range nl.Outputs {
		if out[0] != 'P' {
			t.Fatalf("unexpected output name %q", out)
		}
	}
}

func TestArrayMultiplierSpecMatchesArithmetic(t *testing.T) {
	// Evaluate the spec directly against integer multiplication so the
	// netlist test above is not checking the spec against itself.
	spec := ArrayMultiplierSpec(3)
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			in := map[string]bool{}
			for k := 0; k < 3; k++ {
				in[fmt.Sprintf("A%d", k)] = a>>uint(k)&1 == 1
				in[fmt.Sprintf("B%d", k)] = b>>uint(k)&1 == 1
			}
			p := a * b
			for k := 0; k < 6; k++ {
				want := p>>uint(k)&1 == 1
				if got := spec[fmt.Sprintf("P%d", k)].Eval(in); got != want {
					t.Fatalf("P%d(%d*%d) = %v, want %v", k, a, b, got, want)
				}
			}
		}
	}
}

// TestArrayMultiplier8Arithmetic checks the 8-bit multiplier netlist
// against integer products rather than the folded Boolean spec, so a
// mistake shared by ArrayMultiplier and ArrayMultiplierSpec (the same
// adder recurrence) still shows. The exhaustive spec check is the mult8
// registry entry's netlist stage.
func TestArrayMultiplier8Arithmetic(t *testing.T) {
	nl := ArrayMultiplier(8)
	if len(nl.Inputs) != 16 || len(nl.Outputs) != 16 {
		t.Fatalf("ports = %d in / %d out, want 16/16", len(nl.Inputs), len(nl.Outputs))
	}
	check := func(a, b int) {
		in := map[string]bool{}
		for k := 0; k < 8; k++ {
			in[fmt.Sprintf("A%d", k)] = a>>uint(k)&1 == 1
			in[fmt.Sprintf("B%d", k)] = b>>uint(k)&1 == 1
		}
		vals, err := nl.Evaluate(in)
		if err != nil {
			t.Fatal(err)
		}
		p := a * b
		for k := 0; k < 16; k++ {
			if want := p>>uint(k)&1 == 1; vals[fmt.Sprintf("P%d", k)] != want {
				t.Fatalf("P%d(%d*%d) = %v, want %v", k, a, b, vals[fmt.Sprintf("P%d", k)], want)
			}
		}
	}
	// Corners plus an LCG sample across the space.
	for _, c := range [][2]int{{0, 0}, {255, 255}, {255, 1}, {1, 255}, {0, 255}, {170, 85}} {
		check(c[0], c[1])
	}
	state := uint32(1)
	n := 256
	if testing.Short() {
		n = 32
	}
	for i := 0; i < n; i++ {
		state = state*1664525 + 1013904223
		check(int(state>>8&0xFF), int(state>>16&0xFF))
	}
}

func TestWriteVerilog(t *testing.T) {
	nl := FullAdder()
	var buf bytes.Buffer
	if err := nl.WriteVerilog(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"module fulladder (A, B, Cin, Sum, Carry);",
		"input A, B, Cin;",
		"output Sum, Carry;",
		"NAND2_2X g1 (.A(A), .B(B), .OUT(n1));",
		"endmodule",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("verilog missing %q\n%s", want, out)
		}
	}
	// Wires declared exactly once and not duplicating ports.
	if strings.Count(out, "wire ") != 1 {
		t.Fatal("expected a single wire declaration line")
	}
	if strings.Contains(strings.SplitN(out, "wire ", 2)[1], " Sum") {
		t.Fatal("output listed as wire")
	}
}
