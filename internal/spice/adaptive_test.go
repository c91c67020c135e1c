package spice

import (
	"errors"
	"math"
	"testing"

	"cnfetdk/internal/device"
	"cnfetdk/internal/fault"
)

// adaptiveBenchPulse is the stimulus of adaptiveBench: the design delay
// testbench's cycle, one 5 ps edge each way inside a 4 ns window.
var adaptiveBenchPulse = Pulse{V0: 0, V1: device.Vdd, Delay: 1000e-12, Rise: 5e-12, Fall: 5e-12, W: 2000e-12, Period: 4000e-12}

// adaptiveBench is a three-inverter chain driven by adaptiveBenchPulse:
// two edges, long quiescent stretches around them.
func adaptiveBench(t *testing.T) *Circuit {
	t.Helper()
	c := New()
	c.AddV("vdd", "vdd", "0", DC(device.Vdd))
	c.AddV("vin", "n0", "0", adaptiveBenchPulse)
	addInverter(c, "i1", "n0", "n1", nfet(t), pfet(t))
	addInverter(c, "i2", "n1", "n2", nfet(t), pfet(t))
	addInverter(c, "i3", "n2", "n3", nfet(t), pfet(t))
	c.AddC("cl", "n3", "0", 2e-15)
	return c
}

func adaptiveOpts() Options {
	o := opts()
	o.Adaptive = true
	return o
}

// gridIndex returns k with t == float64(k)*h exactly, or fails.
func gridIndex(t *testing.T, tm, h float64) int {
	t.Helper()
	k := int(math.Round(tm / h))
	if float64(k)*h != tm {
		t.Fatalf("time %.17g is not on the base grid (nearest k=%d: %.17g)", tm, k, float64(k)*h)
	}
	return k
}

// TestAdaptiveTransientGridLocked pins the stride rules on both solver
// paths: every accepted time is float64(k)*h of the fixed grid; the
// base step holding each stimulus corner is taken alone; the quiescent
// stretches are crossed in far fewer steps; and the measured delay
// agrees with the fixed-step reference.
func TestAdaptiveTransientGridLocked(t *testing.T) {
	const tstop, steps = 4000e-12, 8000
	h := tstop / float64(steps)
	for _, solver := range []SolverKind{SolverDense, SolverSparse} {
		fixed := opts()
		fixed.Solver = solver
		ad := adaptiveOpts()
		ad.Solver = solver
		ref, err := adaptiveBench(t).Transient(tstop, steps, fixed)
		if err != nil {
			t.Fatal(err)
		}
		if s := ref.Stats; s.Steps != steps || s.Rejected != 0 || s.Bypassed != 0 || s.FETEvals == 0 {
			t.Fatalf("fixed-step stats %+v, want %d steps, no strides, no bypass", s, steps)
		}
		res, err := adaptiveBench(t).Transient(tstop, steps, ad)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		t.Logf("solver %d: %+v", solver, st)
		if st.Steps != len(res.Times)-1 || st.Steps > steps/8 {
			t.Fatalf("adaptive took %d steps (%d samples), want <= %d", st.Steps, len(res.Times), steps/8)
		}
		if st.Bypassed == 0 {
			t.Fatal("no FET stamp was bypassed")
		}
		ks := make([]int, len(res.Times))
		for i, tm := range res.Times {
			ks[i] = gridIndex(t, tm, h)
			if i > 0 && ks[i] <= ks[i-1] {
				t.Fatalf("time went backwards at sample %d", i)
			}
		}
		if ks[len(ks)-1] != steps {
			t.Fatalf("last sample at k=%d, want %d", ks[len(ks)-1], steps)
		}
		p := adaptiveBenchPulse
		for _, tc := range []float64{p.Delay, p.Delay + p.Rise, p.Delay + p.Rise + p.W, p.Delay + p.Rise + p.W + p.Fall} {
			for i := 1; i < len(ks); i++ {
				if res.Times[i-1] <= tc && tc < res.Times[i] && ks[i]-ks[i-1] != 1 {
					t.Fatalf("corner %.4g s inside a %d-step stride", tc, ks[i]-ks[i-1])
				}
			}
		}
		want, err := ref.PropDelay("n0", "n3", device.Vdd)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.PropDelay("n0", "n3", device.Vdd)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-want) / want; rel > 1e-5 {
			t.Fatalf("adaptive delay %.9e vs fixed %.9e: rel %.2e", got, want, rel)
		}
	}
}

// TestAdaptiveRejectsOverlongStride drives an inverter with a ramp too
// slow to break calm: the strides grow over it until one lands on the
// inverter's switching point and moves the output by more than
// rejectTol. That stride must be redone at stride 1, so the output
// crossing still matches the fixed-step reference.
func TestAdaptiveRejectsOverlongStride(t *testing.T) {
	build := func() *Circuit {
		c := New()
		c.AddV("vdd", "vdd", "0", DC(device.Vdd))
		c.AddV("vin", "in", "0", PWL{T: []float64{0, 20e-9}, V: []float64{0, device.Vdd}})
		addInverter(c, "i1", "in", "out", nfet(t), pfet(t))
		c.AddC("cl", "out", "0", 1e-15)
		return c
	}
	const tstop, steps = 20e-9, 40000
	ref, err := build().Transient(tstop, steps, opts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := build().Transient(tstop, steps, adaptiveOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%+v", res.Stats)
	if res.Stats.Rejected == 0 {
		t.Fatal("no stride was rejected")
	}
	want, err := ref.CrossTime("out", device.Vdd/2, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.CrossTime("out", device.Vdd/2, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got-want) / want; rel > 1e-5 {
		t.Fatalf("adaptive crossing %.9e vs fixed %.9e: rel %.2e", got, want, rel)
	}
}

// TestAdaptiveInjectedFaultInStrideReturned arms spice.newton on exactly
// the solve of the first stride longer than one base step. A retry at
// stride 1 would succeed (the rule fires once), so an error proves the
// injected fault was returned at once instead of retried.
func TestAdaptiveInjectedFaultInStrideReturned(t *testing.T) {
	const tstop, steps = 4000e-12, 8000
	h := tstop / float64(steps)
	res, err := adaptiveBench(t).Transient(tstop, steps, adaptiveOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rejected != 0 {
		t.Fatalf("bench rejected %d strides; the call count below assumes none", res.Stats.Rejected)
	}
	call := 0
	for i := 1; i < len(res.Times); i++ {
		if gridIndex(t, res.Times[i], h)-gridIndex(t, res.Times[i-1], h) > 1 {
			// Call 1 is the operating point; sample i is solved by call i+1.
			call = i + 1
			break
		}
	}
	if call == 0 {
		t.Fatal("no stride longer than one base step")
	}
	opt := adaptiveOpts()
	opt.Inject = fault.MustNew(fault.Plan{Rules: []fault.Rule{{Point: "spice.newton", Nth: call}}})
	_, err = adaptiveBench(t).Transient(tstop, steps, opt)
	if !errors.Is(err, fault.ErrInjected) || !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("fault on call %d (a stride): err %v, want the injected non-convergence", call, err)
	}
}

// TestGenuineNoConvergence separates the solver's own non-convergence
// (a failed stride is redone at stride 1, through the same redo path
// TestAdaptiveRejectsOverlongStride exercises) from an injected one and
// from other errors (returned).
func TestGenuineNoConvergence(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{&ConvergenceError{T: 1}, true},
		{&ConvergenceError{T: 1, Cause: fault.ErrInjected}, false},
		{errors.New("spice: singular matrix"), false},
	} {
		if got := genuineNoConvergence(tc.err); got != tc.want {
			t.Errorf("genuineNoConvergence(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestPulseCorners lists a periodic pulse's corners inside the window
// only, and stops listing a pulse that repeats too often.
func TestPulseCorners(t *testing.T) {
	p := Pulse{V1: 1, Delay: 1, Rise: 1, W: 2, Fall: 1, Period: 10}
	got, ok := p.corners(nil, 14)
	want := []float64{1, 2, 4, 5, 11, 12}
	if !ok || len(got) != len(want) {
		t.Fatalf("corners = %v, %v; want %v", got, ok, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("corners = %v, want %v", got, want)
		}
	}
	if _, ok := (Pulse{V1: 1, Rise: 1, Fall: 1, W: 1, Period: 4}).corners(nil, 1e9); ok {
		t.Fatal("a pulse of 2.5e8 periods listed its corners")
	}
}
