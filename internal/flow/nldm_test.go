package flow

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/liberty"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/rules"
	"cnfetdk/internal/sta"
	"cnfetdk/internal/synth"
)

// cellSet returns the sorted distinct cells a registry circuit
// instantiates.
func cellSet(t *testing.T, circuit string) []string {
	t.Helper()
	c, err := LookupCircuit(circuit)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return usedCells(nl)
}

// computedCells tallies the per-cell NLDM lookups of a trace that
// characterized rather than served their cell, by report stage name.
func computedCells(tr *pipeline.Trace) (computed map[string]int, lookups int) {
	computed = map[string]int{}
	for _, r := range tr.Reports() {
		if !strings.HasPrefix(r.Stage, "nldmcell/") {
			continue
		}
		lookups++
		if !r.Cached {
			computed[r.Stage]++
		}
	}
	return computed, lookups
}

// TestNLDMAssemblyMatchesCharacterize pins the per-cell cache's
// identity contract: for every registry circuit on both technologies,
// at one worker and at four, the model the nldm stage assembles from
// cached cells and the liberty analysis' text are byte-identical to a
// library-wide liberty.CharacterizeCtx over the same cell set.
func TestNLDMAssemblyMatchesCharacterize(t *testing.T) {
	if testing.Short() {
		t.Skip("characterizes every registry cell on both technologies")
	}
	ctx := context.Background()
	// The reference models, one CharacterizeCtx per (tech, cell set):
	// several circuits share a set.
	refs := map[string]*liberty.Model{}
	reference := func(lib *cells.Library, names []string) *liberty.Model {
		key := lib.Tech.String() + ":" + strings.Join(names, ",")
		if m, ok := refs[key]; ok {
			return m
		}
		keep := map[string]bool{}
		for _, n := range names {
			keep[n] = true
		}
		m, err := liberty.CharacterizeCtx(ctx, lib, nil, func(n string) bool { return keep[n] }, 0)
		if err != nil {
			t.Fatal(err)
		}
		refs[key] = m
		return m
	}
	for _, workers := range []int{1, 4} {
		k, err := New(ctx, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range Circuits() {
			res, err := k.Run(ctx, Request{Circuit: c.Name, Analyses: []Analysis{AnalysisLiberty}})
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, c.Name, err)
			}
			nl, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, tech := range kitTechs {
				lib, err := k.LibFor(tech)
				if err != nil {
					t.Fatal(err)
				}
				tn := strings.ToLower(tech.String())
				want := reference(lib, cellSet(t, c.Name))
				got, err := k.runNLDM(ctx, lib, nl)
				if err != nil {
					t.Fatal(err)
				}
				gotB, err := codecNLDM.Encode(got)
				if err != nil {
					t.Fatal(err)
				}
				wantB, err := codecNLDM.Encode(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotB, wantB) {
					t.Errorf("workers=%d %s/%s: assembled nldm model differs from CharacterizeCtx", workers, c.Name, tn)
				}
				var lib2 bytes.Buffer
				if err := want.Write(&lib2); err != nil {
					t.Fatal(err)
				}
				if res.Techs[tn].Liberty != lib2.String() {
					t.Errorf("workers=%d %s/%s: liberty text differs from CharacterizeCtx", workers, c.Name, tn)
				}
			}
		}
	}
}

// TestNLDMCellsCharacterizedOncePerStore pins the tentpole's sharing
// claims. One kit timing rca4 and then mult4 characterizes each
// (technology, cell) exactly once, however many circuits use it. A
// second kit opened on the same store directory then times rca8 — whose
// cells rca4 already covered — serving every cell from disk without
// characterizing anything, and reports exactly the storeless answer.
func TestNLDMCellsCharacterizedOncePerStore(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization-backed flow")
	}
	ctx := context.Background()
	dir := t.TempDir()
	analyses := []Analysis{AnalysisSTA}

	trA := &pipeline.Trace{}
	a, err := New(ctx, WithStore(dir), WithTrace(trA))
	if err != nil {
		t.Fatal(err)
	}
	for _, circuit := range []string{"rca4", "mult4"} {
		if _, err := a.Run(ctx, Request{Circuit: circuit, Analyses: analyses}); err != nil {
			t.Fatalf("%s: %v", circuit, err)
		}
	}
	computed, _ := computedCells(trA)
	union := map[string]bool{}
	for _, circuit := range []string{"rca4", "mult4"} {
		for _, cell := range cellSet(t, circuit) {
			for _, tech := range kitTechs {
				union["nldmcell/"+strings.ToLower(tech.String())+"/"+cell] = true
			}
		}
	}
	for stage := range union {
		if computed[stage] != 1 {
			t.Errorf("%s characterized %d times, want exactly 1", stage, computed[stage])
		}
	}
	if len(computed) != len(union) {
		t.Errorf("characterized %d (tech, cell) pairs, want %d: %v", len(computed), len(union), computed)
	}

	trB := &pipeline.Trace{}
	b, err := New(ctx, WithStore(dir), WithTrace(trB))
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Circuit: "rca8", Analyses: analyses}
	got, err := b.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	computed, lookups := computedCells(trB)
	if lookups == 0 || len(computed) > 0 {
		t.Errorf("second kit: %d cell lookups, characterized %v; want every cell served", lookups, computed)
	}
	if st := b.CacheStats(); st.Disk == nil || st.Disk.Hits == 0 {
		t.Errorf("second kit served nothing from disk: %+v", st.Disk)
	}
	want, err := kit(t).Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range []string{"cmos", "cnfet"} {
		if !reflect.DeepEqual(got.Techs[tn].STA, want.Techs[tn].STA) {
			t.Errorf("%s: store-served STA report %+v differs from storeless %+v", tn, got.Techs[tn].STA, want.Techs[tn].STA)
		}
	}
}

// TestNLDMCellSingleflightAcrossCircuits runs the sta stages of three
// circuits that use the same cells concurrently on one fresh kit: the
// per-cell lookups share one characterization per cell between the
// circuits' stages instead of racing to repeat it.
func TestNLDMCellSingleflightAcrossCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization-backed flow")
	}
	ctx := context.Background()
	tr := &pipeline.Trace{}
	k, err := New(ctx, WithWorkers(4), WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	circuits := []string{"rca4", "rca8", "fulladder"}
	var wg sync.WaitGroup
	for _, circuit := range circuits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := k.Run(ctx, Request{Circuit: circuit, Techs: []string{"cnfet"}, Analyses: []Analysis{AnalysisSTA}}); err != nil {
				t.Errorf("%s: %v", circuit, err)
			}
		}()
	}
	wg.Wait()
	computed, lookups := computedCells(tr)
	cellsUsed := cellSet(t, "rca4")
	if lookups != len(circuits)*len(cellsUsed) {
		t.Errorf("%d cell lookups, want %d", lookups, len(circuits)*len(cellsUsed))
	}
	for _, cell := range cellsUsed {
		if n := computed["nldmcell/cnfet/"+cell]; n != 1 {
			t.Errorf("%s characterized %d times across concurrent circuits, want 1", cell, n)
		}
	}
}

// TestNLDMCellCodecRejectsMalformed pins the decoder's shape checks:
// each entry below would index a table out of range, or interpolate
// over a degenerate axis, if it reached the timing engine.
func TestNLDMCellCodecRejectsMalformed(t *testing.T) {
	const arc = `{"Name":"X","InputCapF":{"A":1e-15},"Arcs":[{"Input":"A",` +
		`"Table":{"LoadsF":%s,"DelaysS":[1,2]},` +
		`"Surface":{"SlewsS":%s,"LoadsF":[1,2],"DelayS":%s,"OutSlewS":[[1,2],[3,4]]}}]}`
	good := fmt.Sprintf(arc, "[1,2]", "[1,2]", "[[1,2],[3,4]]")
	if _, err := codecNLDMCell.Decode([]byte(good)); err != nil {
		t.Fatalf("well-formed entry rejected: %v", err)
	}
	for name, data := range map[string]string{
		"ragged row":      fmt.Sprintf(arc, "[1,2]", "[1,2]", "[[1,2],[3]]"),
		"missing row":     fmt.Sprintf(arc, "[1,2]", "[1,2]", "[[1,2]]"),
		"one-point axis":  fmt.Sprintf(arc, "[1,2]", "[1]", "[[1,2]]"),
		"descending axis": fmt.Sprintf(arc, "[1,2]", "[2,1]", "[[1,2],[3,4]]"),
		"short table":     fmt.Sprintf(arc, "[1]", "[1,2]", "[[1,2],[3,4]]"),
		"no surface":      `{"Name":"X","InputCapF":{"A":1e-15},"Arcs":[{"Input":"A"}]}`,
		"unnamed":         `{"InputCapF":{},"Arcs":[]}`,
		"null":            `null`,
	} {
		if _, err := codecNLDMCell.Decode([]byte(data)); err == nil {
			t.Errorf("%s: malformed entry accepted", name)
		}
	}
}

// FuzzNLDMCellDecode drives the per-cell NLDM store codec with mutated
// entries. The seeds are real characterized cells. Whatever the bytes,
// decode must either reject them or return a cell the timing engine can
// evaluate anywhere on and off its grid without panicking, and an
// accepted cell must survive a re-encode unchanged.
func FuzzNLDMCellDecode(f *testing.F) {
	lib, err := cells.NewLibrary(rules.CNFET)
	if err != nil {
		f.Fatal(err)
	}
	m := liberty.NewModel(lib, nil)
	for _, name := range []string{"INV_1X", "NAND2_1X"} {
		cm, err := liberty.CharacterizeCell(context.Background(), lib, name, m.SlewsS, m.LoadsF)
		if err != nil {
			f.Fatal(err)
		}
		data, err := codecNLDMCell.Encode(cm)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"Name":"X","InputCapF":{"A":1e-15},"Arcs":[{"Input":"A",` +
		`"Table":{"LoadsF":[1,2],"DelaysS":[1,2]},` +
		`"Surface":{"SlewsS":[1,2],"LoadsF":[1,2],"DelayS":[[1,2],[3]],"OutSlewS":[[1,2],[3,4]]}}]}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := codecNLDMCell.Decode(data)
		if err != nil {
			return
		}
		cm := v.(*liberty.CellModel)
		for _, arc := range cm.Arcs {
			sf := arc.Surface
			for _, s := range []float64{0, sf.SlewsS[0], sf.SlewsS[len(sf.SlewsS)-1] * 2} {
				for _, l := range []float64{0, sf.LoadsF[0], sf.LoadsF[len(sf.LoadsF)-1] * 2} {
					sf.Delay(s, l)
					sf.OutSlew(s, l)
					arc.Table.Interp(l)
				}
			}
		}
		// One instance of the cell, every arc input a primary input:
		// the engine may reject the cell, but must not panic.
		nl := &synth.Netlist{Name: "fuzz", Outputs: []string{"Y"}}
		inst := synth.Instance{Name: "U0", Cell: cm.Name, Conns: map[string]string{"OUT": "Y"}}
		for _, arc := range cm.Arcs {
			inst.Conns[arc.Input] = "in_" + arc.Input
		}
		for pin, net := range inst.Conns {
			if pin != "OUT" {
				nl.Inputs = append(nl.Inputs, net)
			}
		}
		sort.Strings(nl.Inputs)
		nl.Instances = []synth.Instance{inst}
		model := liberty.NewModel(lib, nil)
		model.Cells[cm.Name] = cm
		_, _ = sta.Analyze(nl, model, nil)

		again, err := codecNLDMCell.Encode(cm)
		if err != nil {
			t.Fatalf("re-encoding an accepted cell: %v", err)
		}
		back, err := codecNLDMCell.Decode(again)
		if err != nil {
			t.Fatalf("re-decoding an accepted cell: %v", err)
		}
		if !reflect.DeepEqual(back, cm) {
			t.Fatal("accepted cell changed across a re-encode")
		}
	})
}
