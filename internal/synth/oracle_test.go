package synth_test

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cnfetdk/internal/flow"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/synth"
)

// oracleEvaluate is the reference netlist evaluator the compiled
// simulator is checked against: every cell function re-parsed, values
// in a map, gates iterated to a fixed point. Slow, but independent of
// the compiled IR.
func oracleEvaluate(n *synth.Netlist, in map[string]bool) (map[string]bool, error) {
	vals := map[string]bool{}
	for _, i := range n.Inputs {
		v, ok := in[i]
		if !ok {
			return nil, fmt.Errorf("oracle: input %q not assigned", i)
		}
		vals[i] = v
	}
	exprs := map[string]*logic.Expr{}
	for base, f := range synth.CellFunctions {
		exprs[base] = logic.MustParse(f)
	}
	for pass := 0; pass <= len(n.Instances); pass++ {
		progress := false
		done := true
		for _, inst := range n.Instances {
			out := inst.Conns["OUT"]
			if _, ok := vals[out]; ok {
				continue
			}
			base := inst.Cell
			if i := strings.LastIndex(base, "_"); i > 0 {
				base = base[:i]
			}
			e, ok := exprs[base]
			if !ok {
				return nil, fmt.Errorf("oracle: unknown cell %q", inst.Cell)
			}
			env := map[string]bool{}
			ready := true
			for _, v := range e.Vars() {
				net, ok := inst.Conns[v]
				if !ok {
					return nil, fmt.Errorf("oracle: %s: pin %s unbound", inst.Name, v)
				}
				val, ok := vals[net]
				if !ok {
					ready = false
					break
				}
				env[v] = val
			}
			if !ready {
				done = false
				continue
			}
			vals[out] = !e.Eval(env)
			progress = true
		}
		if done {
			return vals, nil
		}
		if !progress {
			return nil, fmt.Errorf("oracle: netlist is cyclic or has undriven nets")
		}
	}
	return vals, nil
}

// assignment decodes vector v (bit k drives input k) into a map.
func assignment(n *synth.Netlist, v uint64) map[string]bool {
	in := map[string]bool{}
	for k, name := range n.Inputs {
		in[name] = v>>uint(k)&1 == 1
	}
	return in
}

// oracleVerify checks spec vector by vector with the oracle and the
// tree-walking Expr.Eval, reporting the first failing vector's first
// failing output in sorted order — the contract Verify must match.
func oracleVerify(n *synth.Netlist, spec map[string]*logic.Expr, vectors []uint64) error {
	outs := make([]string, 0, len(spec))
	for o := range spec {
		outs = append(outs, o)
	}
	sort.Strings(outs)
	for _, v := range vectors {
		in := assignment(n, v)
		vals, err := oracleEvaluate(n, in)
		if err != nil {
			return err
		}
		for _, o := range outs {
			got, ok := vals[o]
			if !ok {
				return fmt.Errorf("synth: output %q undriven", o)
			}
			if want := spec[o].Eval(in); got != want {
				return fmt.Errorf("synth: output %q wrong on vector %b: got %v want %v", o, v, got, want)
			}
		}
	}
	return nil
}

// verificationVectors is the vector sequence the netlist stage checks
// for a circuit: VerifySampled's sample, or every vector.
func verificationVectors(inputs, samples int) []uint64 {
	if seq := synth.SampleVectors(inputs, samples); seq != nil {
		return seq
	}
	all := make([]uint64, 1<<uint(inputs))
	for v := range all {
		all[v] = uint64(v)
	}
	return all
}

// simulateMatchesOracle runs the compiled simulator over vectors, 64 per
// word, and compares every net of every lane with the oracle.
func simulateMatchesOracle(t testing.TB, nl *synth.Netlist, c *synth.Compiled, vectors []uint64) {
	t.Helper()
	in := make([]uint64, len(nl.Inputs))
	vals := make([]uint64, c.Slots())
	for base := 0; base < len(vectors); base += 64 {
		lanes := vectors[base:min(base+64, len(vectors))]
		clear(in)
		for l, v := range lanes {
			for k := range in {
				in[k] |= (v >> uint(k) & 1) << uint(l)
			}
		}
		c.Simulate(in, vals)
		for l, v := range lanes {
			want, err := oracleEvaluate(nl, assignment(nl, v))
			if err != nil {
				t.Fatalf("%s: oracle on vector %b: %v", nl.Name, v, err)
			}
			if len(want) != len(c.Nets) {
				t.Fatalf("%s: oracle valued %d nets, compiled form has %d", nl.Name, len(want), len(c.Nets))
			}
			for id, net := range c.Nets {
				if got := vals[id]>>uint(l)&1 == 1; got != want[net] {
					t.Fatalf("%s: net %s on vector %b: simulate %v, oracle %v", nl.Name, net, v, got, want[net])
				}
			}
		}
	}
}

// oracleVectorCap bounds the oracle's share of the differential test:
// the map evaluator takes about 0.7 ms per mult8 vector, so mult8's
// 2^16 exhaustive vectors are checked on an even 1-in-16 stride. Every
// other registry circuit's verification set fits whole.
const oracleVectorCap = 4096

// TestCompiledMatchesOracle: on every registry circuit, Simulate agrees
// with the oracle on every net over the circuit's verification vectors.
func TestCompiledMatchesOracle(t *testing.T) {
	for _, circ := range flow.Circuits() {
		nl, err := circ.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", circ.Name, err)
		}
		c, err := synth.Compile(nl)
		if err != nil {
			t.Fatalf("%s: compile: %v", circ.Name, err)
		}
		vectors := verificationVectors(len(nl.Inputs), circ.SpecSamples)
		if stride := len(vectors) / oracleVectorCap; stride > 1 {
			var sub []uint64
			for i := 0; i < len(vectors); i += stride {
				sub = append(sub, vectors[i])
			}
			vectors = sub
		}
		simulateMatchesOracle(t, nl, c, vectors)
	}
}

// TestCellSwapVerdictsMatchOracle swaps every instance of rca4 and mult4,
// one at a time, to each other library function with the same pins, and
// checks Verify reaches the oracle's verdict with the same message.
func TestCellSwapVerdictsMatchOracle(t *testing.T) {
	pinsOf := map[string]string{}
	for base, f := range synth.CellFunctions {
		pinsOf[base] = strings.Join(logic.MustParse(f).Vars(), ",")
	}
	for _, tc := range []struct {
		nl   *synth.Netlist
		spec map[string]*logic.Expr
	}{
		{synth.RippleCarryAdder(4), synth.RippleCarryAdderSpec(4)},
		{synth.ArrayMultiplier(4), synth.ArrayMultiplierSpec(4)},
	} {
		vectors := verificationVectors(len(tc.nl.Inputs), 0)
		swaps, failing := 0, 0
		for i := range tc.nl.Instances {
			cell := tc.nl.Instances[i].Cell
			cut := strings.LastIndex(cell, "_")
			base, drive := cell[:cut], cell[cut:]
			for other := range synth.CellFunctions {
				if other == base || pinsOf[other] != pinsOf[base] {
					continue
				}
				tc.nl.Instances[i].Cell = other + drive
				got, want := tc.nl.Verify(tc.spec), oracleVerify(tc.nl, tc.spec, vectors)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: %s -> %s: Verify = %v, oracle = %v", tc.nl.Name, cell, other, got, want)
				}
				swaps++
				if got != nil {
					failing++
				}
			}
			tc.nl.Instances[i].Cell = cell
		}
		if swaps == 0 || failing == 0 {
			t.Fatalf("%s: %d swaps, %d caught", tc.nl.Name, swaps, failing)
		}
	}
}

// FuzzSynthParse: Parse never panics, and whatever it accepts either
// fails to compile or simulates exactly like the oracle on 64 vectors.
func FuzzSynthParse(f *testing.F) {
	for _, circ := range flow.Circuits() {
		nl, err := circ.Build()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := nl.Format(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Fuzz(func(t *testing.T, src string) {
		nl, err := synth.Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		c, err := synth.Compile(nl)
		if err != nil {
			return
		}
		// 64 pseudo-random vectors (splitmix64 over the lane index).
		vectors := make([]uint64, 64)
		for l := range vectors {
			z := uint64(l+1) * 0x9E3779B97F4A7C15
			z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
			z = (z ^ z>>27) * 0x94D049BB133111EB
			vectors[l] = z ^ z>>31
		}
		simulateMatchesOracle(t, nl, c, vectors)
	})
}
