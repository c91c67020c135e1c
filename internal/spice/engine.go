package spice

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"cnfetdk/internal/device"
	"cnfetdk/internal/fault"
)

// ErrNoConvergence is the sentinel every Newton non-convergence wraps;
// match with errors.Is. Non-convergence is a property of the circuit
// and options, not of the caller's request shape, so callers decide
// whether to retry with different options or fail typed.
var ErrNoConvergence = errors.New("spice: no convergence")

// ConvergenceError reports a Newton solve that exhausted MaxNewton
// iterations (or an injected equivalent) at simulation time T.
type ConvergenceError struct {
	// T is the transient time point that failed to converge.
	T float64
	// Cause is the injected fault when the failure was injected, nil
	// for a genuine solver failure.
	Cause error
}

func (e *ConvergenceError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("spice: Newton did not converge at t=%.3e: %v", e.T, e.Cause)
	}
	return fmt.Sprintf("spice: Newton did not converge at t=%.3e", e.T)
}

// Unwrap exposes ErrNoConvergence (and the injected cause, when
// present) to errors.Is.
func (e *ConvergenceError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrNoConvergence, e.Cause}
	}
	return []error{ErrNoConvergence}
}

// Options tunes the analyses.
type Options struct {
	// MaxNewton is the Newton-Raphson iteration cap per solve.
	MaxNewton int
	// VTol is the voltage convergence tolerance.
	VTol float64
	// Gmin is the minimum conductance tied from every FET terminal to
	// ground for convergence robustness.
	Gmin float64
	// MaxStep clamps Newton voltage updates (damping).
	MaxStep float64
	// Solver picks the linear solver: SolverAuto (the zero value)
	// switches from dense to sparse at sparseCrossover unknowns;
	// SolverDense and SolverSparse force a path (tests, benchmarks).
	Solver SolverKind
	// Inject arms the solver's fault-injection points ("spice.newton"
	// forces a typed non-convergence); nil — the default — is free.
	Inject *fault.Injector
	// Adaptive runs the transient grid-locked adaptive: quiescent
	// stretches are crossed in strides of whole base steps and idle FETs
	// re-stamp their cached companion instead of being re-evaluated.
	// Unset — the default — is the fixed-step reference.
	Adaptive bool
}

// The adaptive transient's tolerances. A stride is a whole number of
// base steps h = tstop/steps, so every accepted time point lies on the
// fixed path's grid.
const (
	// calmTol is the largest node change per base step of a calm step.
	calmTol = 1e-4
	// calmRun calm steps in a row double the stride.
	calmRun = 4
	// rejectTol is the largest node change a stride of more than one
	// base step may make; a larger one is redone at stride 1.
	rejectTol = 1e-2
	// maxStride caps the stride, in base steps.
	maxStride = 256
	// bypassTol is how far every terminal of a FET may have moved since
	// its last evaluation for the FET to re-stamp its cached companion.
	bypassTol = 1e-6
)

// DefaultOptions returns robust defaults.
func DefaultOptions() Options {
	return Options{MaxNewton: 100, VTol: 1e-6, Gmin: 1e-12, MaxStep: 0.5}
}

// state is a scratch MNA system. The linear part of the system (resistor
// conductances, capacitor trapezoidal companions, voltage-source
// incidence, Gmin ties) is stamped once per (deltaT, Gmin) configuration
// into aStatic; each Newton iteration copy-restores it and re-applies only
// the FET Norton linearizations. The per-time-point RHS (source waveform
// values, capacitor history currents) is likewise stamped once per time
// point into bStep. Every slice lives for the life of the state and is
// reused across iterations and timesteps, so a solve in steady state
// allocates nothing.
type state struct {
	c   *Circuit
	opt Options
	n   int // node unknowns excluding ground
	m   int // voltage-source branch currents
	dim int

	aStatic []float64 // static linear stamps, valid for (deltaT, opt.Gmin)
	bStep   []float64 // per-time-point RHS (sources at t, capacitor history)
	a       []float64 // working matrix, copy-restored then destroyed by lu
	b       []float64 // working RHS, copy-restored then destroyed by lu
	perm    []int     // caller-owned pivot scratch for lu

	// The sparse path (sparse == true): the same static/working split
	// over the plan's value arrays instead of dense dim×dim storage.
	// The plan is the per-topology symbolic factorization; it survives
	// init across structure-identical circuits, and Batch pre-seeds it
	// so every lane shares one.
	sparse    bool
	pl        *plan
	aStaticSp []float64 // static stamps over the plan's A-pattern
	aSp       []float64 // working values, copy-restored per iteration
	lx, ux    []float64 // numeric factors over the plan's L/U patterns
	dg        []float64 // pivots
	wv        []float64 // dim-sized factorization/solve scratch

	x      []float64 // current solution estimate (node voltages + branch currents)
	xPrev  []float64 // previous timestep solution
	iPrev  []float64 // previous capacitor currents (trapezoidal)
	deltaT float64   // 0 for DC
	t      float64

	staticOK bool // aStatic matches the current (deltaT, opt.Gmin)

	// bypass re-stamps a FET's cached Norton companion while none of
	// its terminals moved bypassTol since it was evaluated. fetCache
	// holds fetCacheLen values per FET: the terminal voltages of the
	// evaluation (vg, vd, vs; NaN until the first), then ieq, dIg, dId
	// and dIs.
	bypass   bool
	fetCache []float64
	stats    Stats
}

const fetCacheLen = 7

// init sizes the scratch for a circuit, reusing any capacity the state
// already holds, and resets the solution estimate to zero. On the
// sparse path it also resolves the symbolic plan: a plan left from a
// previous solve is kept when the new circuit has the identical
// topology (load sweeps and Monte Carlo lanes rebuild fresh but
// structure-identical circuits), so repeated solves plan once.
func (s *state) init(c *Circuit, opt Options) error {
	n := c.NodeCount() - 1
	m := len(c.VSources)
	dim := n + m
	s.c, s.opt = c, opt
	s.n, s.m, s.dim = n, m, dim
	s.sparse = wantSparse(opt.Solver, dim)
	if s.sparse {
		if s.pl == nil || s.pl.dim != dim || !s.pl.matches(c, n, m) {
			pl, err := newPlan(c, n, m)
			if err != nil {
				return err
			}
			s.pl = pl
		}
		nnz := len(s.pl.ai)
		s.aStaticSp = growFloats(s.aStaticSp, nnz)
		s.aSp = growFloats(s.aSp, nnz)
		s.lx = growFloats(s.lx, len(s.pl.li))
		s.ux = growFloats(s.ux, len(s.pl.ui))
		s.dg = growFloats(s.dg, dim)
		s.wv = growFloats(s.wv, dim)
	} else {
		s.aStatic = growFloats(s.aStatic, dim*dim)
		s.a = growFloats(s.a, dim*dim)
		if cap(s.perm) < dim {
			s.perm = make([]int, dim)
		}
		s.perm = s.perm[:dim]
	}
	s.bStep = growFloats(s.bStep, dim)
	s.b = growFloats(s.b, dim)
	s.x = growFloats(s.x, dim)
	s.xPrev = growFloats(s.xPrev, dim)
	s.iPrev = growFloats(s.iPrev, len(c.Capacitors))
	zeroFloats(s.x)
	zeroFloats(s.xPrev)
	zeroFloats(s.iPrev)
	s.deltaT, s.t = 0, 0
	s.staticOK = false
	s.bypass = false
	s.fetCache = growFloats(s.fetCache, fetCacheLen*len(c.FETs))
	for i := 0; i < len(s.fetCache); i += fetCacheLen {
		s.fetCache[i] = math.NaN()
	}
	s.stats = Stats{}
	return nil
}

// growFloats returns a slice of length n, reusing s's capacity when it
// suffices. Contents are unspecified; callers overwrite or zero them.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// setGmin updates the robustness conductance, invalidating the static
// stamps when it actually changes (gmin stepping).
func (s *state) setGmin(g float64) {
	if s.opt.Gmin != g {
		s.opt.Gmin = g
		s.staticOK = false
	}
}

// setDeltaT switches between DC (0) and transient companion stamping.
func (s *state) setDeltaT(dt float64) {
	if s.deltaT != dt {
		s.deltaT = dt
		s.staticOK = false
	}
}

// idx maps a node index to a matrix row (-1 for ground).
func (s *state) idx(node int) int { return node - 1 }

// v returns the node voltage of the current estimate.
func (s *state) v(node int) float64 {
	if node == 0 {
		return 0
	}
	return s.x[node-1]
}

// stampGInto stamps a conductance between nodes a and b into matrix m.
func (s *state) stampGInto(m []float64, a, b int, g float64) {
	ia, ib := s.idx(a), s.idx(b)
	if ia >= 0 {
		m[ia*s.dim+ia] += g
	}
	if ib >= 0 {
		m[ib*s.dim+ib] += g
	}
	if ia >= 0 && ib >= 0 {
		m[ia*s.dim+ib] -= g
		m[ib*s.dim+ia] -= g
	}
}

// stampIInto stamps a current flowing from a to b externally (injected
// into b) into RHS vector rhs.
func (s *state) stampIInto(rhs []float64, a, b int, i float64) {
	if ia := s.idx(a); ia >= 0 {
		rhs[ia] -= i
	}
	if ib := s.idx(b); ib >= 0 {
		rhs[ib] += i
	}
}

// stampStatic assembles the linear, configuration-dependent part of the
// MNA matrix: resistors, capacitor trapezoidal companion conductances,
// voltage-source incidence, and the per-FET Gmin ties. It depends only on
// (deltaT, opt.Gmin), never on the Newton estimate or the time point, so
// newton copy-restores it instead of re-stamping.
func (s *state) stampStatic() {
	zeroFloats(s.aStatic)
	c := s.c
	for _, r := range c.Resistors {
		s.stampGInto(s.aStatic, r.A, r.B, 1/r.R)
	}
	if s.deltaT > 0 {
		for _, cap := range c.Capacitors {
			// Trapezoidal companion conductance geq = 2C/dt.
			s.stampGInto(s.aStatic, cap.A, cap.B, 2*cap.C/s.deltaT)
		}
	}
	// DC: capacitors are open circuits.
	for vi, vs := range c.VSources {
		row := s.n + vi
		ip, in := s.idx(vs.P), s.idx(vs.N)
		if ip >= 0 {
			s.aStatic[ip*s.dim+row] += 1
			s.aStatic[row*s.dim+ip] += 1
		}
		if in >= 0 {
			s.aStatic[in*s.dim+row] -= 1
			s.aStatic[row*s.dim+in] -= 1
		}
	}
	for i := range c.FETs {
		f := &c.FETs[i]
		s.stampGInto(s.aStatic, f.D, 0, s.opt.Gmin)
		s.stampGInto(s.aStatic, f.S, 0, s.opt.Gmin)
	}
	s.staticOK = true
}

// stampGSp stamps a conductance between nodes a and b into the sparse
// value array m through the plan's slot map.
func (s *state) stampGSp(m []float64, a, b int, g float64) {
	ia, ib := a-1, b-1
	if ia >= 0 {
		m[s.pl.slotOf(ia, ia)] += g
	}
	if ib >= 0 {
		m[s.pl.slotOf(ib, ib)] += g
	}
	if ia >= 0 && ib >= 0 {
		m[s.pl.slotOf(ia, ib)] -= g
		m[s.pl.slotOf(ib, ia)] -= g
	}
}

// stampStaticSparse is stampStatic for the sparse path: identical
// element walk and values, but each stamp lands in its planned slot.
// The slot lookups binary-search the pattern — fine for a routine that
// runs once per (deltaT, Gmin) configuration, not per iteration.
func (s *state) stampStaticSparse() {
	zeroFloats(s.aStaticSp)
	c := s.c
	for _, r := range c.Resistors {
		s.stampGSp(s.aStaticSp, r.A, r.B, 1/r.R)
	}
	if s.deltaT > 0 {
		for _, cap := range c.Capacitors {
			s.stampGSp(s.aStaticSp, cap.A, cap.B, 2*cap.C/s.deltaT)
		}
	}
	// DC: capacitors are open circuits (their pattern slots stay zero).
	for vi, vs := range c.VSources {
		row := s.n + vi
		if ip := s.idx(vs.P); ip >= 0 {
			s.aStaticSp[s.pl.slotOf(ip, row)]++
			s.aStaticSp[s.pl.slotOf(row, ip)]++
		}
		if in := s.idx(vs.N); in >= 0 {
			s.aStaticSp[s.pl.slotOf(in, row)]--
			s.aStaticSp[s.pl.slotOf(row, in)]--
		}
	}
	for i := range c.FETs {
		f := &c.FETs[i]
		s.stampGSp(s.aStaticSp, f.D, 0, s.opt.Gmin)
		s.stampGSp(s.aStaticSp, f.S, 0, s.opt.Gmin)
	}
	s.staticOK = true
}

// stampStep assembles the per-time-point RHS: voltage-source waveform
// values, current sources, and the capacitor trapezoidal history. It
// depends on (t, xPrev, iPrev) — all fixed across the Newton iterations
// of one time point — so newton computes it once per solve.
func (s *state) stampStep() {
	zeroFloats(s.bStep)
	c := s.c
	if s.deltaT > 0 {
		for ci, cap := range c.Capacitors {
			geq := 2 * cap.C / s.deltaT
			vPrev := s.prevV(cap.A) - s.prevV(cap.B)
			ieq := geq*vPrev + s.iPrev[ci]
			s.stampIInto(s.bStep, cap.B, cap.A, ieq) // inject ieq from B to A
		}
	}
	for vi, vs := range c.VSources {
		s.bStep[s.n+vi] += vs.W.At(s.t)
	}
	for _, is := range c.ISources {
		s.stampIInto(s.bStep, is.P, is.N, is.W.At(s.t))
	}
}

func (s *state) prevV(node int) float64 {
	if node == 0 {
		return 0
	}
	return s.xPrev[node-1]
}

// norton linearizes FET fi around the present estimate:
// I(v) ≈ I0 + gG·(vg-vg0) + gD·(vd-vd0) + gS·(vs-vs0), returned as the
// Norton equivalent (current source ieq plus the three conductances).
// Under bypass, a FET none of whose terminals moved bypassTol since its
// last evaluation returns that evaluation's companion unchanged.
func (s *state) norton(fi int) (ieq, dIg, dId, dIs float64) {
	f := &s.c.FETs[fi]
	vg, vd, vs := s.v(f.G), s.v(f.D), s.v(f.S)
	if !s.bypass {
		id, dIg, dId, dIs := fetEval(f.P, vg, vd, vs)
		return id - dIg*vg - dId*vd - dIs*vs, dIg, dId, dIs
	}
	fc := s.fetCache[fi*fetCacheLen : fi*fetCacheLen+fetCacheLen]
	if math.Abs(vg-fc[0]) < bypassTol && math.Abs(vd-fc[1]) < bypassTol && math.Abs(vs-fc[2]) < bypassTol {
		s.stats.Bypassed++
		return fc[3], fc[4], fc[5], fc[6]
	}
	id, dIg, dId, dIs := fetEval(f.P, vg, vd, vs)
	ieq = id - dIg*vg - dId*vd - dIs*vs
	fc[0], fc[1], fc[2] = vg, vd, vs
	fc[3], fc[4], fc[5], fc[6] = ieq, dIg, dId, dIs
	return ieq, dIg, dId, dIs
}

// stampFET stamps FET fi's Norton linearization into the dense working
// system. Only the Norton equivalent is stamped here; the FET's Gmin
// ties live in the static matrix.
func (s *state) stampFET(fi int) {
	f := &s.c.FETs[fi]
	ieq, dIg, dId, dIs := s.norton(fi)
	// KCL at D: +id; at S: -id.
	if di := s.idx(f.D); di >= 0 {
		s.b[di] -= ieq
	}
	if si := s.idx(f.S); si >= 0 {
		s.b[si] += ieq
	}
	s.addA(f.D, f.G, dIg)
	s.addA(f.D, f.D, dId)
	s.addA(f.D, f.S, dIs)
	s.addA(f.S, f.G, -dIg)
	s.addA(f.S, f.D, -dId)
	s.addA(f.S, f.S, -dIs)
}

// addA adds v at (r, c) of the working matrix when both map to unknowns.
func (s *state) addA(r, c int, v float64) {
	ri, ci := s.idx(r), s.idx(c)
	if ri >= 0 && ci >= 0 {
		s.a[ri*s.dim+ci] += v
	}
}

// stampFETSparse is stampFET for the sparse path: the same Norton
// linearization, but the six matrix entries go to slots the plan
// precomputed — six indexed adds, no searching, on the hot path.
func (s *state) stampFETSparse(fi int) {
	f := &s.c.FETs[fi]
	ieq, dIg, dId, dIs := s.norton(fi)
	if di := s.idx(f.D); di >= 0 {
		s.b[di] -= ieq
	}
	if si := s.idx(f.S); si >= 0 {
		s.b[si] += ieq
	}
	slots := s.pl.fetSlot[fi*6 : fi*6+6]
	vals := [6]float64{dIg, dId, dIs, -dIg, -dId, -dIs}
	for k, t := range slots {
		if t >= 0 {
			s.aSp[t] += vals[k]
		}
	}
}

// fetEval computes the drain current and its exact terminal derivatives.
//
// The smooth model is I = sign · ISat · g(u) · tanh(vds'/VSat) in the
// source-swapped frame (vds' >= 0), with g the logistic gate factor at
// u = (vgs' - Vt)/SS. Writing F(vgs, vds) for the current as a function of
// the polarity-mapped terminal differences, the chain rule through the
// swap (vgs' = vgs - vds, vds' = -vds when vds < 0) gives
//
//	vds >= 0:  ∂F/∂vgs = ISat·g′/SS·tanh,   ∂F/∂vds = ISat·g·sech²/VSat
//	vds <  0:  ∂F/∂vgs = -ISat·g′/SS·tanh,  ∂F/∂vds = ISat·(g′/SS·tanh + g·sech²/VSat)
//
// (g′, tanh, sech² evaluated at the swapped arguments). Both polarities
// then map identically onto the terminals: dI/dvg = ∂F/∂vgs,
// dI/dvd = ∂F/∂vds, dI/dvs = -(∂F/∂vgs + ∂F/∂vds) — the p-device mirrors
// the argument mapping and the output sign, and the two flips cancel.
// One exp and one tanh serve the current and all three derivatives, where
// central differences cost six extra model evaluations; the parity test
// pins the two against each other to 1e-9 over a dense grid.
func fetEval(p device.FETParams, vg, vd, vs float64) (id, dIg, dId, dIs float64) {
	vgs := vg - vs
	vds := vd - vs
	if p.Polarity == device.PType {
		vgs = vs - vg
		vds = vs - vd
	}
	sign := 1.0
	if vds < 0 {
		// Symmetric device: treat the lower terminal as the source.
		vgs -= vds
		vds = -vds
		sign = -1
	}
	u := (vgs - p.Vt) / p.SS
	var g, gp float64
	switch {
	case u > 40:
		g = 1
	case u < -40:
		g = 0
	default:
		g = 1 / (1 + math.Exp(-u))
		gp = g * (1 - g)
	}
	th := math.Tanh(vds / p.VSat)
	dgs := p.ISat * gp / p.SS * th           // |∂F/∂vgs| contribution
	dds := p.ISat * g * (1 - th*th) / p.VSat // saturation-slope contribution
	f := sign * p.ISat * g * th
	var f1, f2 float64
	if sign > 0 {
		f1, f2 = dgs, dds
	} else {
		f1, f2 = -dgs, dgs+dds
	}
	id = f
	if p.Polarity == device.PType {
		id = -f
	}
	return id, f1, f2, -f1 - f2
}

// newton iterates the nonlinear solve at the present time point. The
// static stamps and the per-time-point RHS are assembled once; each
// iteration copy-restores them and re-applies only the FET
// linearizations, then factorizes in the preallocated working system —
// the loop allocates nothing.
func (s *state) newton() error {
	if err := s.opt.Inject.Fault("spice.newton"); err != nil {
		return &ConvergenceError{T: s.t, Cause: err}
	}
	if !s.staticOK {
		if s.sparse {
			s.stampStaticSparse()
		} else {
			s.stampStatic()
		}
	}
	s.stampStep()
	for it := 0; it < s.opt.MaxNewton; it++ {
		s.stats.Newton++
		copy(s.b, s.bStep)
		// We assemble full equations in terms of absolute unknowns, so
		// the solve yields x_new directly.
		if s.sparse {
			copy(s.aSp, s.aStaticSp)
			for i := range s.c.FETs {
				s.stampFETSparse(i)
			}
			if bad := s.pl.factor(s.aSp, s.lx, s.ux, s.dg, s.wv); bad >= 0 {
				col := int(s.pl.colOf[bad])
				return fmt.Errorf("spice: singular matrix at %s (elimination step %d of %d)",
					s.c.unknownName(col), bad, s.dim)
			}
			s.pl.solve(s.b, s.lx, s.ux, s.dg, s.wv)
		} else {
			copy(s.a, s.aStatic)
			for i := range s.c.FETs {
				s.stampFET(i)
			}
			if err := lu(s.a, s.b, s.perm, s.dim); err != nil {
				var se *singularError
				if errors.As(err, &se) {
					return fmt.Errorf("spice: singular matrix at %s (column %d of %d)",
						s.c.unknownName(se.col), se.col, s.dim)
				}
				return err
			}
		}
		// Damped update and convergence check on node voltages.
		conv := true
		for i := 0; i < s.dim; i++ {
			d := s.b[i] - s.x[i]
			if i < s.n {
				if math.Abs(d) > s.opt.VTol {
					conv = false
				}
				if d > s.opt.MaxStep {
					d = s.opt.MaxStep
				} else if d < -s.opt.MaxStep {
					d = -s.opt.MaxStep
				}
			}
			s.x[i] += d
		}
		if conv {
			return nil
		}
	}
	return &ConvergenceError{T: s.t}
}

// Workspace holds the solver scratch and waveform storage one goroutine
// reuses across repeated solves: characterization sweeps and Monte Carlo
// loops run thousands of near-identical transients, and reusing the
// workspace keeps them off the garbage collector entirely. The zero value
// is ready to use. A Workspace is not safe for concurrent use; give each
// worker its own.
type Workspace struct {
	st  state
	res Result
	// corners holds the base-step grid indices of the stimulus corners
	// of the latest adaptive transient (see strideCorners).
	corners []float64
}

// OP computes the DC operating point. It first tries a direct solve, then
// falls back to gmin stepping.
func (c *Circuit) OP(opt Options) ([]float64, error) {
	var ws Workspace
	s := &ws.st
	if err := s.init(c, opt); err != nil {
		return nil, err
	}
	if err := s.newton(); err == nil {
		return s.x, nil
	}
	// Gmin stepping: start heavily damped and relax.
	for _, g := range []float64{1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, opt.Gmin} {
		s.setGmin(g)
		if err := s.newton(); err != nil {
			return nil, fmt.Errorf("gmin step %g: %w", g, err)
		}
	}
	return s.x, nil
}

// Result holds a transient waveform set.
type Result struct {
	Circuit *Circuit
	Times   []float64
	// V[node][k] is the voltage of node at Times[k] (node 0 omitted).
	V [][]float64
	// IV[src][k] is the branch current of voltage source src at Times[k];
	// positive current flows from P to N inside the source.
	IV [][]float64
	// Stats counts the work the solve took.
	Stats Stats
}

// Stats are a transient's solver counters.
type Stats struct {
	// Steps is the number of accepted time points after t = 0.
	Steps int
	// Newton is the number of Newton iterations, operating point
	// included.
	Newton int
	// Rejected is the number of strides redone at stride 1.
	Rejected int
	// FETEvals is the number of FET model evaluations.
	FETEvals int
	// Bypassed is the number of FET stamps served from the bypass cache.
	Bypassed int
}

// reset sizes the result for a run of steps+1 samples over the circuit,
// reusing the waveform storage of a previous run when it is big enough.
func (r *Result) reset(c *Circuit, steps int) {
	r.Circuit = c
	samples := steps + 1
	r.Times = growFloats(r.Times, samples)
	nNodes := c.NodeCount() - 1
	r.V = growWaves(r.V, nNodes, samples)
	r.IV = growWaves(r.IV, len(c.VSources), samples)
}

// trim cuts every waveform to its first samples entries.
func (r *Result) trim(samples int) {
	r.Times = r.Times[:samples]
	for i := range r.V {
		r.V[i] = r.V[i][:samples]
	}
	for i := range r.IV {
		r.IV[i] = r.IV[i][:samples]
	}
}

// growWaves sizes an outer×samples waveform matrix, reusing capacity.
func growWaves(w [][]float64, outer, samples int) [][]float64 {
	if cap(w) < outer {
		w = make([][]float64, outer)
	} else {
		w = w[:outer]
	}
	for i := range w {
		w[i] = growFloats(w[i], samples)
	}
	return w
}

// Transient runs a trapezoidal transient from 0 to tstop over a grid of
// the given number of base steps. The DC operating point at t=0
// initializes state.
func (c *Circuit) Transient(tstop float64, steps int, opt Options) (*Result, error) {
	return c.TransientWith(nil, tstop, steps, opt)
}

// TransientWith is Transient reusing a caller-owned workspace: the solver
// scratch and the returned Result's waveform storage live in ws, so a
// loop of same-shaped solves stops allocating after the first. The
// returned Result aliases ws and is only valid until the next solve on
// the same workspace; pass nil for a one-shot solve.
//
// The fixed-step transient (opt.Adaptive unset) takes every base step
// h = tstop/steps. The adaptive one walks the same grid, t = k·h always,
// but takes a stride of several base steps where the circuit is calm:
// after calmRun steps in a row that each moved no node more than calmTol
// per base step, the stride doubles, up to maxStride. A stride never
// crosses a stimulus corner and restarts at 1 on one, so every edge is
// simulated base step by base step. A stride that moves a node more than
// rejectTol, or fails to converge, is redone at stride 1; one that fails
// on an injected fault returns it.
func (c *Circuit) TransientWith(ws *Workspace, tstop float64, steps int, opt Options) (*Result, error) {
	if ws == nil {
		ws = &Workspace{}
	}
	s := &ws.st
	if err := s.init(c, opt); err != nil {
		return nil, err
	}
	if err := s.newton(); err != nil {
		// Retry via gmin ramp.
		for _, g := range []float64{1e-3, 1e-5, 1e-7, 1e-9, opt.Gmin} {
			s.setGmin(g)
			if err2 := s.newton(); err2 != nil {
				return nil, fmt.Errorf("spice: OP for transient: %w", err2)
			}
		}
		s.setGmin(opt.Gmin)
	}
	h := tstop / float64(steps)
	res := &ws.res
	res.reset(c, steps)
	samples := 0
	record := func() {
		res.Times[samples] = s.t
		for i := 0; i < s.n; i++ {
			res.V[i][samples] = s.x[i]
		}
		for i := range c.VSources {
			res.IV[i][samples] = s.x[s.n+i]
		}
		samples++
	}
	record()
	copy(s.xPrev, s.x)
	// Initialize capacitor currents at 0 (consistent DC).
	zeroFloats(s.iPrev)

	// corners lists the stimulus corners as grid indices; canStride is
	// false when a source's corners are unknown.
	var corners []float64
	canStride := false
	if opt.Adaptive {
		corners, canStride = ws.strideCorners(c, tstop, h)
		s.bypass = true
	}
	stride, calm, next := 1, 0, 0
	for k := 0; k < steps; {
		span := min(stride, steps-k)
		if next < len(corners) {
			span = min(span, int(corners[next])-k)
		}
		dt := h
		if span > 1 {
			dt = float64(span) * h
		}
		s.setDeltaT(dt)
		s.t = float64(k+span) * h
		err := s.newton()
		if err != nil && (span == 1 || !genuineNoConvergence(err)) {
			return nil, err
		}
		move := 0.0
		if err == nil && opt.Adaptive {
			move = s.maxMove()
		}
		if err != nil || (span > 1 && move > rejectTol) {
			// Redo the interval from its start at stride 1.
			copy(s.x, s.xPrev)
			stride, calm = 1, 0
			s.stats.Rejected++
			continue
		}
		// Update capacitor branch currents for the trapezoidal history:
		// i_new = geq*(v_new - v_prev) - i_prev.
		for ci, cap := range c.Capacitors {
			geq := 2 * cap.C / dt
			vNew := s.v(cap.A) - s.v(cap.B)
			vPrev := s.prevV(cap.A) - s.prevV(cap.B)
			s.iPrev[ci] = geq*(vNew-vPrev) - s.iPrev[ci]
		}
		copy(s.xPrev, s.x)
		k += span
		record()
		s.stats.Steps++
		switch {
		case !canStride:
		case next < len(corners) && k == int(corners[next]):
			next++
			stride, calm = 1, 0
		case move <= calmTol*float64(span):
			if calm++; calm == calmRun && stride < maxStride {
				stride, calm = 2*stride, 0
			}
		default:
			stride, calm = 1, 0
		}
	}
	res.trim(samples)
	res.Stats = s.stats
	// Every Newton iteration stamps every FET once.
	res.Stats.FETEvals = res.Stats.Newton*len(c.FETs) - res.Stats.Bypassed
	return res, nil
}

// genuineNoConvergence reports whether err is a Newton non-convergence
// of the solver itself, not an injected one.
func genuineNoConvergence(err error) bool {
	var ce *ConvergenceError
	return errors.As(err, &ce) && ce.Cause == nil
}

// maxMove returns the largest node-voltage change since the last
// accepted time point.
func (s *state) maxMove() float64 {
	m := 0.0
	for i := 0; i < s.n; i++ {
		m = math.Max(m, math.Abs(s.x[i]-s.xPrev[i]))
	}
	return m
}

// strideCorners collects the corners of every source waveform in
// (0, tstop) as the grid indices floor(t/h), sorted and distinct: the
// base step a corner falls in is then always simulated as one step.
// ok is false when a source's waveform does not list its corners; the
// adaptive transient then keeps stride 1 and only bypasses.
func (ws *Workspace) strideCorners(c *Circuit, tstop, h float64) (corners []float64, ok bool) {
	ts := ws.corners[:0]
	collect := func(w Waveform) bool {
		cw, ok := w.(cornered)
		if ok {
			ts, ok = cw.corners(ts, tstop)
		}
		return ok
	}
	for _, v := range c.VSources {
		if !collect(v.W) {
			ws.corners = ts
			return nil, false
		}
	}
	for _, i := range c.ISources {
		if !collect(i.W) {
			ws.corners = ts
			return nil, false
		}
	}
	// A corner in the first base step needs no stop: that step is
	// always taken alone.
	kept := ts[:0]
	for _, t := range ts {
		if k := math.Floor(t / h); k >= 1 {
			kept = append(kept, k)
		}
	}
	slices.Sort(kept)
	ws.corners = slices.Compact(kept)
	return ws.corners, true
}
