package flow

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/fault"
	"cnfetdk/internal/liberty"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/spice"
	"cnfetdk/internal/synth"
)

// delayInputs rebuilds what the delay stage of a default request for
// the registry circuit consumes on one tech: the library, the netlist
// and the placed design's wire loads.
func delayInputs(t *testing.T, k *Kit, c *Circuit, tech rules.Tech) (*cells.Library, *synth.Netlist, map[string]float64) {
	t.Helper()
	lib, err := k.LibFor(tech)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	scheme := "shelves"
	if tech == rules.CMOS {
		scheme = "rows"
	}
	p, err := placeScheme(lib, nl, scheme, c.Rows)
	if err != nil {
		t.Fatal(err)
	}
	return lib, nl, WireCapsWith(p, nl, lib.Rules.LambdaNM, k.wireCap)
}

// adaptiveParityTol is the pinned relative delay tolerance of the
// adaptive transient against the fixed-step reference (measured worst
// case across the registry: 2.7e-6, aoichain4 CMOS).
const adaptiveParityTol = 1e-5

// TestAdaptiveDelayParityAllRegistryCircuits measures every registry
// circuit's design delay on both techs through the fixed-step reference
// and the adaptive transient the delay stage runs. The delays must
// agree to adaptiveParityTol; a testbench the reference cannot measure
// (rca16 CMOS: the 4 ns cycle is too short for its carry chain) must
// fail identically on the adaptive path. Under -race the three largest
// circuits are skipped: their fixed-step references take minutes there
// and would push the package toward the default test timeout; rca4 and
// rca8 still cover the sparse path.
func TestAdaptiveDelayParityAllRegistryCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	k := kit(t)
	for _, c := range Circuits() {
		for _, tech := range []rules.Tech{rules.CMOS, rules.CNFET} {
			c, tech := c, tech
			t.Run(c.Name+"/"+strings.ToLower(tech.String()), func(t *testing.T) {
				if raceEnabled && (c.Name == "mult8" || c.Name == "mult4" || c.Name == "rca16") {
					t.Skip("fixed-step reference too slow under -race")
				}
				lib, nl, wire := delayInputs(t, k, c, tech)
				want, werr := k.runDelay(lib, nl, wire, c.Stimulus, spice.DefaultOptions())
				got, gerr := k.runDelay(lib, nl, wire, c.Stimulus, k.delayOptions())
				if werr != nil || gerr != nil {
					if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
						t.Fatalf("fixed err %v, adaptive err %v: want both nil or the same", werr, gerr)
					}
					t.Logf("both paths fail alike: %v", werr)
					return
				}
				rel := math.Abs(got-want) / want
				t.Logf("fixed %.6e s, adaptive %.6e s, rel %.2e", want, got, rel)
				if rel > adaptiveParityTol {
					t.Fatalf("adaptive delay %.9e s vs fixed %.9e s: rel %.2e > %.0e", got, want, rel, adaptiveParityTol)
				}
			})
		}
	}
}

// TestFixedDelayFullAdderPinned pins the fixed-step reference bit for
// bit: the full adder's CMOS and CNFET delays are the values the
// fixed-step transient computed before the adaptive transient shared
// its loop. It also checks the delay stage runs exactly runDelay under
// delayOptions, so the parity test compares what Run computes.
func TestFixedDelayFullAdderPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	k := kit(t)
	c, err := LookupCircuit("fulladder")
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Run(context.Background(), Request{Circuit: "fulladder", Analyses: []Analysis{AnalysisDelay}})
	if err != nil {
		t.Fatal(err)
	}
	pins := map[rules.Tech]uint64{rules.CMOS: 0x3dd46c2a75db8120, rules.CNFET: 0x3db6dc6d0403f9e0}
	for tech, pin := range pins {
		lib, nl, wire := delayInputs(t, k, c, tech)
		d, err := k.runDelay(lib, nl, wire, c.Stimulus, spice.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(d); got != pin {
			t.Errorf("%v fixed-step delay %.12e s (%#x), want %#x", tech, d, got, pin)
		}
		a, err := k.runDelay(lib, nl, wire, c.Stimulus, k.delayOptions())
		if err != nil {
			t.Fatal(err)
		}
		if run := res.Techs[strings.ToLower(tech.String())].DelayS; math.Float64bits(run) != math.Float64bits(a) {
			t.Errorf("%v: Run's delay %.12e s, runDelay under delayOptions %.12e s", tech, run, a)
		}
	}
}

// varDelayRequest is a small active-spread ensemble on the full adder.
func varDelayRequest() Request {
	return Request{
		Circuit:    "fulladder",
		Techs:      []string{"cnfet"},
		Analyses:   []Analysis{AnalysisDelay},
		CNTCountCV: 0.2, DiameterSigmaNM: 0.05,
		VarSamples: 8,
		Seed:       3,
	}
}

// TestAdaptiveVarDelayDeterministicAcrossWorkers runs the adaptive
// vardelay ensemble on one worker and on four: every lane owns its
// workspace, so its stride decisions and bypass cache depend on its own
// circuit only, and the ensemble must be identical.
func TestAdaptiveVarDelayDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	var got []*DelayEnsemble
	for _, w := range []int{1, 4} {
		k, err := New(context.Background(), WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		res, err := k.Run(context.Background(), varDelayRequest())
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		vd := res.Techs["cnfet"].VarDelay
		if vd == nil || vd.Samples != 8 {
			t.Fatalf("workers=%d: ensemble %+v, want 8 samples", w, vd)
		}
		got = append(got, vd)
	}
	if *got[0] != *got[1] {
		t.Fatalf("ensemble differs across worker counts:\n1: %+v\n4: %+v", got[0], got[1])
	}
}

// TestVarDelayHonorsFaultInjection arms spice.newton on every call: the
// vardelay stage's transients must see the kit's injector and fail with
// a typed non-convergence.
func TestVarDelayHonorsFaultInjection(t *testing.T) {
	inj := fault.MustNew(fault.Plan{Rules: []fault.Rule{{Point: "spice.newton"}}})
	tr := &pipeline.Trace{}
	k, err := New(context.Background(), WithFaults(inj), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(context.Background(), varDelayRequest()); err == nil {
		t.Fatal("run with spice.newton armed succeeded")
	}
	var seen bool
	for _, r := range tr.Reports() {
		if r.Stage != "vardelay/cnfet" {
			continue
		}
		seen = true
		if !errors.Is(r.Err, spice.ErrNoConvergence) || !errors.Is(r.Err, fault.ErrInjected) {
			t.Fatalf("vardelay/cnfet error %v, want an injected spice.ErrNoConvergence", r.Err)
		}
	}
	if !seen {
		t.Fatal("no vardelay/cnfet stage report")
	}
}

// TestTransientKeysSaltedNLDMCellKeyKept pins the store compatibility of
// the step-control salt. The delay and vardelay keys below are the ones
// the fixed-step flow persisted for varDelayRequest; a value planted
// under them must not be served, while one planted under the salted key
// is (which proves the keys here are rebuilt from Run's inputs). The
// NLDM cell key, untouched by the salt, must still be the one the
// fixed-step flow persisted.
func TestTransientKeysSaltedNLDMCellKeyKept(t *testing.T) {
	if testing.Short() {
		t.Skip("transient-heavy")
	}
	const (
		fixedDelayKey    = "c819cabc6e379fa31c29a7bd"
		fixedVarDelayKey = "12ae0ae086c5f8b7f1baf7cb"
		nldmCellKey      = "7aaeccd95876bf132d32d06c"
	)
	req := varDelayRequest()
	c, err := LookupCircuit(req.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(k *Kit, key func(...any) string) (string, string) {
		rk := k.rulesKey[rules.CNFET]
		stimKey := stimulusKeyParts(c.Stimulus)
		vr := req.variations()
		d := key(append([]any{"delay", "cnfet", rk, "shelves", c.Rows, k.wireCap}, stimKey...)...)
		v := key(append([]any{"vardelay", "cnfet", rk, "shelves", c.Rows, k.wireCap,
			vr.CountCV, vr.DiameterSigmaNM, req.VarSamples, req.Seed}, stimKey...)...)
		return d, v
	}
	plant := func(k *Kit, delayKey, varKey string) {
		ctx := context.Background()
		if _, _, err := k.cache.DoCodecCtx(ctx, delayKey, codecScalar, func() (any, error) { return 1.0, nil }); err != nil {
			t.Fatal(err)
		}
		bogus := &DelayEnsemble{Samples: req.VarSamples, MeanS: 1, MinS: 1, MaxS: 1}
		if _, _, err := k.cache.DoCodecCtx(ctx, varKey, codecVarDelay, func() (any, error) { return bogus, nil }); err != nil {
			t.Fatal(err)
		}
	}
	run := func(k *Kit) (float64, float64) {
		res, err := k.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Techs["cnfet"]
		return tr.DelayS, tr.VarDelay.MeanS
	}

	old, err := NewKit()
	if err != nil {
		t.Fatal(err)
	}
	d, v := keys(old, req.stageKey)
	if d != fixedDelayKey || v != fixedVarDelayKey {
		t.Fatalf("unsalted keys %s/%s, want the fixed-step flow's %s/%s", d, v, fixedDelayKey, fixedVarDelayKey)
	}
	plant(old, d, v)
	if dly, mean := run(old); dly == 1 || mean == 1 {
		t.Fatalf("fixed-step entries served to the adaptive flow: delay %g, vardelay mean %g", dly, mean)
	}

	salted, err := NewKit()
	if err != nil {
		t.Fatal(err)
	}
	d, v = keys(salted, req.transientKey)
	if d == fixedDelayKey || v == fixedVarDelayKey {
		t.Fatal("salted keys equal the fixed-step keys")
	}
	plant(salted, d, v)
	if dly, mean := run(salted); dly != 1 || mean != 1 {
		t.Fatalf("planted salted entries not served (delay %g, mean %g): the keys here are not Run's", dly, mean)
	}

	m := liberty.NewModel(salted.CNFET, nil)
	if n := pipeline.Key(cacheSchema, "nldmcell", "cnfet", salted.rulesKey[rules.CNFET], "INV_1X", m.SlewsS, m.LoadsF); n != nldmCellKey {
		t.Fatalf("NLDM cell key %s, want the persisted %s", n, nldmCellKey)
	}
}
