//go:build !race

package spice

import (
	"testing"

	"cnfetdk/internal/device"
)

// TestTransientSteadyStateZeroAlloc is the allocation-regression guard on
// the solver hot path: once a workspace is warm, a whole transient —
// every Newton iteration, LU factorization and waveform record inside it
// — must allocate nothing. (Skipped under -race: the race runtime adds
// bookkeeping allocations that are not the solver's.)
func TestTransientSteadyStateZeroAlloc(t *testing.T) {
	c := New()
	c.AddV("vdd", "vdd", "0", DC(device.Vdd))
	c.AddV("vin", "n0", "0", Pulse{V0: 0, V1: 1, Delay: 20e-12, Rise: 5e-12, Fall: 5e-12, W: 1, Period: 2})
	addInverter(c, "i1", "n0", "n1", nfet(t), pfet(t))
	addInverter(c, "i2", "n1", "n2", nfet(t), pfet(t))
	c.AddC("cl", "n2", "0", 1e-15)

	ws := &Workspace{}
	run := func() {
		if _, err := c.TransientWith(ws, 200e-12, 400, opts()); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the workspace: scratch and waveforms size themselves once
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("steady-state transient allocates %.1f allocs/op, want 0", avg)
	}
}

// TestTransientSparseSteadyStateZeroAlloc pins the same guarantee on the
// sparse path: the circuit is far below the automatic crossover, so the
// solver is forced sparse, and a warm workspace — plan, factor storage
// and scratch all sized by the first run — must refactorize and solve
// without a single allocation per transient.
func TestTransientSparseSteadyStateZeroAlloc(t *testing.T) {
	c := New()
	c.AddV("vdd", "vdd", "0", DC(device.Vdd))
	c.AddV("vin", "n0", "0", Pulse{V0: 0, V1: 1, Delay: 20e-12, Rise: 5e-12, Fall: 5e-12, W: 1, Period: 2})
	addInverter(c, "i1", "n0", "n1", nfet(t), pfet(t))
	addInverter(c, "i2", "n1", "n2", nfet(t), pfet(t))
	c.AddC("cl", "n2", "0", 1e-15)

	opt := opts()
	opt.Solver = SolverSparse
	ws := &Workspace{}
	run := func() {
		if _, err := c.TransientWith(ws, 200e-12, 400, opt); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: symbolic plan + numeric storage built once
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("sparse steady-state transient allocates %.1f allocs/op, want 0", avg)
	}
}

// TestOPSteadyStateAllocsBounded pins the one-shot OP path: it may
// allocate its workspace but nothing per Newton iteration, so the count
// must not scale with the iteration-heavy solve.
func TestOPSteadyStateAllocsBounded(t *testing.T) {
	c := New()
	c.AddV("vdd", "vdd", "0", DC(device.Vdd))
	c.AddV("vin", "in", "0", DC(0.5))
	addInverter(c, "inv", "in", "out", nfet(t), pfet(t))
	avg := testing.AllocsPerRun(10, func() {
		if _, err := c.OP(opts()); err != nil {
			t.Fatal(err)
		}
	})
	// One workspace: a handful of slice headers and the scratch arrays.
	if avg > 16 {
		t.Fatalf("OP allocates %.1f allocs/op; the Newton loop must not allocate per iteration", avg)
	}
}

// TestAdaptiveTransientSteadyStateZeroAlloc pins the zero-alloc
// guarantee on the adaptive transient, on both solver paths: the bypass
// cache and the corner list are sized by the first run and reused, so a
// warm workspace strides, rejects and bypasses without allocating.
func TestAdaptiveTransientSteadyStateZeroAlloc(t *testing.T) {
	for _, solver := range []SolverKind{SolverDense, SolverSparse} {
		c := adaptiveBench(t)
		opt := adaptiveOpts()
		opt.Solver = solver
		ws := &Workspace{}
		run := func() {
			if _, err := c.TransientWith(ws, 4000e-12, 8000, opt); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if avg := testing.AllocsPerRun(10, run); avg != 0 {
			t.Fatalf("solver %d: steady-state adaptive transient allocates %.1f allocs/op, want 0", solver, avg)
		}
	}
}
