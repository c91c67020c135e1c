//go:build !race

package synth

import "testing"

// TestSimulateZeroAlloc pins the simulator's steady state: once compiled,
// a 64-vector pass writes only the caller's buffers. (Skipped under
// -race: the race runtime instruments allocations.)
func TestSimulateZeroAlloc(t *testing.T) {
	c, err := Compile(RippleCarryAdder(16))
	if err != nil {
		t.Fatal(err)
	}
	in := make([]uint64, len(c.Inputs))
	vals := make([]uint64, c.Slots())
	for k := range in {
		in[k] = 0x9E3779B97F4A7C15 * uint64(k+1)
	}
	c.Simulate(in, vals)
	if n := testing.AllocsPerRun(10, func() { c.Simulate(in, vals) }); n != 0 {
		t.Fatalf("Simulate allocates %v/op, want 0", n)
	}
}
