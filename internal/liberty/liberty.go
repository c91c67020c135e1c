// Package liberty characterizes the standard-cell library into NLDM-style
// lookup tables and writes industry-standard Liberty (.lib) files — the
// artifact that lets the CNFET library drop into the conventional
// synthesis flow, which is the point of the paper's Section IV
// ("incorporate minimal changes to the conventional design flow").
package liberty

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"cnfetdk/internal/cells"
	"cnfetdk/internal/device"
	"cnfetdk/internal/layout"
	"cnfetdk/internal/logic"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/spice"
)

// LUT is a one-dimensional NLDM table: delay (s) vs output load (F).
type LUT struct {
	LoadsF  []float64
	DelaysS []float64
}

// Interp evaluates the table at a load with linear interpolation and flat
// extrapolation.
func (l LUT) Interp(loadF float64) float64 {
	if len(l.LoadsF) == 0 {
		return 0
	}
	if loadF <= l.LoadsF[0] {
		return l.DelaysS[0]
	}
	for i := 1; i < len(l.LoadsF); i++ {
		if loadF <= l.LoadsF[i] {
			f := (loadF - l.LoadsF[i-1]) / (l.LoadsF[i] - l.LoadsF[i-1])
			return l.DelaysS[i-1] + f*(l.DelaysS[i]-l.DelaysS[i-1])
		}
	}
	// Linear extrapolation from the last segment (loads beyond the
	// characterized range are common at high fanout).
	n := len(l.LoadsF)
	slope := (l.DelaysS[n-1] - l.DelaysS[n-2]) / (l.LoadsF[n-1] - l.LoadsF[n-2])
	return l.DelaysS[n-1] + slope*(loadF-l.LoadsF[n-1])
}

// Surface is a two-dimensional NLDM table over (input slew, output
// load): the arc's delay and output transition time at each grid point.
// Lookups interpolate bilinearly with the LUT's edge policy on both axes
// (flat below the first point, linear extrapolation beyond the last).
type Surface struct {
	SlewsS   []float64
	LoadsF   []float64
	DelayS   [][]float64 // [slew][load]
	OutSlewS [][]float64 // [slew][load]
}

// Delay evaluates the arc delay at an input slew and output load.
func (s *Surface) Delay(slewS, loadF float64) float64 {
	return interp2(s.SlewsS, s.LoadsF, s.DelayS, slewS, loadF)
}

// OutSlew evaluates the output transition time at an input slew and
// output load — the value STA propagates as the next stage's input slew.
func (s *Surface) OutSlew(slewS, loadF float64) float64 {
	return interp2(s.SlewsS, s.LoadsF, s.OutSlewS, slewS, loadF)
}

// bracket locates x on the axis: the segment index and the fractional
// position within it (0 below the first point — flat extrapolation;
// > 1 beyond the last — linear extrapolation from the final segment).
func bracket(xs []float64, x float64) (int, float64) {
	if len(xs) < 2 || x <= xs[0] {
		return 0, 0
	}
	for i := 1; i < len(xs); i++ {
		if x <= xs[i] {
			return i - 1, (x - xs[i-1]) / (xs[i] - xs[i-1])
		}
	}
	n := len(xs)
	return n - 2, (x - xs[n-2]) / (xs[n-1] - xs[n-2])
}

func interp2(xs, ys []float64, z [][]float64, x, y float64) float64 {
	if len(z) == 0 {
		return 0
	}
	i, fx := bracket(xs, x)
	j, fy := bracket(ys, y)
	row := func(r []float64) float64 {
		if len(r) == 0 {
			return 0
		}
		if len(r) < 2 {
			return r[0]
		}
		return r[j] + fy*(r[j+1]-r[j])
	}
	v0 := row(z[i])
	if len(z) < 2 {
		return v0
	}
	return v0 + fx*(row(z[i+1])-v0)
}

// Arc is one characterized timing arc (input pin -> OUT).
type Arc struct {
	Input string
	Table LUT
	// Surface is the full slew-aware NLDM grid (nil on models built
	// without slew characterization — lookups then fall back to Table).
	Surface *Surface
	// SigmaRefS is the delay standard deviation at the reference load
	// under the model's variation ensemble (0 until AddVariation runs);
	// Write emits it as a Liberty comment on the arc.
	SigmaRefS float64
}

// CellModel is one library cell's characterization.
type CellModel struct {
	Name      string
	AreaLam2  float64
	Function  string // Liberty boolean function of OUT
	InputCapF map[string]float64
	Arcs      []Arc
	EnergyJ   float64 // per-cycle switching energy at the reference load
}

// Model is the characterized library.
type Model struct {
	Name     string
	Tech     string
	Cells    map[string]*CellModel
	LoadsF   []float64
	SlewsS   []float64
	RefLoadF float64
	// Variation and VarSamples record the CNT variation model the
	// per-arc sigmas were measured under (nil/0 for a nominal model);
	// set by AddVariation.
	Variation  *device.Variations
	VarSamples int
}

// cellNames returns the model's cell names in sorted order — the
// deterministic iteration order Write and AddVariation share.
func (m *Model) cellNames() []string {
	names := make([]string, 0, len(m.Cells))
	for n := range m.Cells {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultLoads returns the characterization load sweep: multiples of the
// library's reference (FO4-equivalent) load.
func DefaultLoads(ref float64) []float64 {
	return []float64{ref * 0.25, ref * 0.5, ref, ref * 2, ref * 4}
}

// DefaultSlews returns the characterization input-slew sweep. The first
// point is the classic 5 ps testbench edge, so the legacy 1-D table (and
// the energy row) is exactly the grid's first slew row; the later points
// cover the degraded edges deep logic cones actually see.
func DefaultSlews() []float64 {
	return []float64{cells.DefaultSlewS, 20e-12, 60e-12}
}

// Characterize sweeps every cell and timing arc of the library across the
// load points using the transistor-level simulator. cellFilter restricts
// which cells to characterize (nil = all). The per-cell sweeps — the
// expensive transient simulations — fan out across one worker per CPU;
// the assembled model is deterministic regardless of worker count.
func Characterize(lib *cells.Library, loads []float64, cellFilter func(string) bool) (*Model, error) {
	return CharacterizeWorkers(lib, loads, cellFilter, 0)
}

// CharacterizeWorkers is Characterize with an explicit worker-pool width
// (<= 0 selects one worker per CPU; 1 is the sequential reference path).
func CharacterizeWorkers(lib *cells.Library, loads []float64, cellFilter func(string) bool, workers int) (*Model, error) {
	return CharacterizeCtx(context.Background(), lib, loads, cellFilter, workers)
}

// CharacterizeCtx is CharacterizeWorkers with cooperative cancellation:
// once ctx is cancelled no further cells are dispatched and the
// characterization returns ctx.Err(). It is NewModel filled by one
// CharacterizeCell per selected cell; the cells fan out across workers.
func CharacterizeCtx(ctx context.Context, lib *cells.Library, loads []float64, cellFilter func(string) bool, workers int) (*Model, error) {
	m := NewModel(lib, loads)
	var names []string
	for _, name := range lib.Names() {
		if cellFilter == nil || cellFilter(name) {
			names = append(names, name)
		}
	}
	cms, err := pipeline.MapCtx(ctx, workers, names, func(_ int, name string) (*CellModel, error) {
		return CharacterizeCell(ctx, lib, name, m.SlewsS, m.LoadsF)
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		m.Cells[name] = cms[i]
	}
	return m, nil
}

// NewModel returns the header of lib's characterized model over a load
// sweep (nil selects DefaultLoads) and the DefaultSlews slew sweep: its
// name, technology and grid, with no cells yet. Filling Cells with
// CharacterizeCell over the header's grid yields exactly the model
// CharacterizeCtx builds.
func NewModel(lib *cells.Library, loads []float64) *Model {
	ref := lib.ReferenceLoad()
	if loads == nil {
		loads = DefaultLoads(ref)
	}
	return &Model{
		Name:     "cnfetdk_" + strings.ToLower(lib.Tech.String()) + "_65nm",
		Tech:     lib.Tech.String(),
		Cells:    map[string]*CellModel{},
		LoadsF:   loads,
		SlewsS:   DefaultSlews(),
		RefLoadF: ref,
	}
}

// CharacterizeCell sweeps every timing arc of one library cell across
// the (slew × load) grid with the transistor-level simulator. The
// result depends only on the library, the cell and the grid, which is
// what lets callers cache it per cell and share it between models. ctx
// is checked between arcs.
func CharacterizeCell(ctx context.Context, lib *cells.Library, name string, slews, loads []float64) (*CellModel, error) {
	c, err := lib.Get(name)
	if err != nil {
		return nil, fmt.Errorf("liberty: %w", err)
	}
	ref := lib.ReferenceLoad()
	cm := &CellModel{
		Name:      name,
		AreaLam2:  lib.Area(c, layout.Scheme1),
		Function:  libertyFunction(c.Gate.PullDown),
		InputCapF: map[string]float64{},
	}
	for k, in := range c.Inputs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cm.InputCapF[in] = lib.InputCap(c, in)
		// The whole (slew × load) grid runs as one plan-sharing batch:
		// the grid's testbenches are structure-identical, so the symbolic
		// solver work is paid once per arc and each point refactorizes
		// numerically in its own lane.
		grid, err := lib.CharacterizeNLDM(c, in, slews, loads, spice.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("liberty: %s/%s: %w", name, in, err)
		}
		sf := &Surface{
			SlewsS:   append([]float64(nil), slews...),
			LoadsF:   append([]float64(nil), loads...),
			DelayS:   make([][]float64, len(slews)),
			OutSlewS: make([][]float64, len(slews)),
		}
		for si, row := range grid {
			sf.DelayS[si] = make([]float64, len(loads))
			sf.OutSlewS[si] = make([]float64, len(loads))
			for li, t := range row {
				sf.DelayS[si][li] = t.DelayS
				sf.OutSlewS[si][li] = t.SlewOutS
			}
		}
		// The legacy 1-D table is the grid's first slew row (the classic
		// 5 ps testbench edge), keeping single-slew consumers and the
		// energy row byte-identical to the pre-slew characterization.
		arc := Arc{Input: in, Surface: sf, Table: LUT{
			LoadsF:  append([]float64(nil), loads...),
			DelaysS: append([]float64(nil), sf.DelayS[0]...),
		}}
		cm.Arcs = append(cm.Arcs, arc)
		if k > 0 {
			continue
		}
		// The first input's arc carries the energy row.
		for i, t := range grid[0] {
			if loads[i] == ref {
				cm.EnergyJ = t.EnergyJ
			}
		}
	}
	return cm, nil
}

// Validate checks a cell model's shape invariants, the ones table
// lookups index by: every arc carries a slew × load surface whose axes
// have at least two strictly increasing points and whose delay and
// output-slew tables are rectangular over them, and a legacy table of
// one delay per load point. Models decoded from outside the process
// pass through it, so a malformed one is rejected instead of indexing
// out of range during timing.
func (c *CellModel) Validate() error {
	if c == nil {
		return fmt.Errorf("liberty: nil cell model")
	}
	if c.Name == "" {
		return fmt.Errorf("liberty: cell model without a name")
	}
	for _, a := range c.Arcs {
		if _, ok := c.InputCapF[a.Input]; !ok {
			return fmt.Errorf("liberty: %s/%s: arc input has no pin capacitance", c.Name, a.Input)
		}
		sf := a.Surface
		if sf == nil {
			return fmt.Errorf("liberty: %s/%s: arc without a surface", c.Name, a.Input)
		}
		if err := checkAxis(sf.SlewsS); err != nil {
			return fmt.Errorf("liberty: %s/%s: slew axis: %w", c.Name, a.Input, err)
		}
		if err := checkAxis(sf.LoadsF); err != nil {
			return fmt.Errorf("liberty: %s/%s: load axis: %w", c.Name, a.Input, err)
		}
		for _, tab := range [][][]float64{sf.DelayS, sf.OutSlewS} {
			if len(tab) != len(sf.SlewsS) {
				return fmt.Errorf("liberty: %s/%s: %d table rows for %d slews", c.Name, a.Input, len(tab), len(sf.SlewsS))
			}
			for _, row := range tab {
				if len(row) != len(sf.LoadsF) {
					return fmt.Errorf("liberty: %s/%s: %d table columns for %d loads", c.Name, a.Input, len(row), len(sf.LoadsF))
				}
			}
		}
		if len(a.Table.LoadsF) != len(sf.LoadsF) || len(a.Table.DelaysS) != len(sf.LoadsF) {
			return fmt.Errorf("liberty: %s/%s: legacy table does not span the load axis", c.Name, a.Input)
		}
		if err := checkAxis(a.Table.LoadsF); err != nil {
			return fmt.Errorf("liberty: %s/%s: legacy load axis: %w", c.Name, a.Input, err)
		}
	}
	return nil
}

// checkAxis requires at least two strictly increasing points, the shape
// the interpolators' bracketing and extrapolation assume.
func checkAxis(xs []float64) error {
	if len(xs) < 2 {
		return fmt.Errorf("%d points, want at least 2", len(xs))
	}
	for i := 1; i < len(xs); i++ {
		if !(xs[i] > xs[i-1]) {
			return fmt.Errorf("not strictly increasing at point %d", i)
		}
	}
	return nil
}

// libertyFunction renders the cell output function (the complement of the
// pull-down expression) in Liberty syntax: out = !(f) with & | !.
func libertyFunction(f *logic.Expr) string {
	return "!(" + libertyExpr(f) + ")"
}

func libertyExpr(e *logic.Expr) string {
	switch e.Op {
	case logic.OpVar:
		return e.Name
	case logic.OpNot:
		return "!" + libertyExpr(e.Kids[0])
	case logic.OpAnd:
		parts := make([]string, len(e.Kids))
		for i, k := range e.Kids {
			s := libertyExpr(k)
			if k.Op == logic.OpOr {
				s = "(" + s + ")"
			}
			parts[i] = s
		}
		return strings.Join(parts, "&")
	case logic.OpOr:
		parts := make([]string, len(e.Kids))
		for i, k := range e.Kids {
			parts[i] = libertyExpr(k)
		}
		return strings.Join(parts, "|")
	}
	return "?"
}

// Arc returns the timing arc for an input pin (nil if absent).
func (c *CellModel) Arc(input string) *Arc {
	for i := range c.Arcs {
		if c.Arcs[i].Input == input {
			return &c.Arcs[i]
		}
	}
	return nil
}

// Write emits the model as a Liberty file. Units: 1ps time, 1fF load.
func (m *Model) Write(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "library(%s) {\n", m.Name)
	fmt.Fprintf(&b, "  comment : \"CNFET design kit, %s at the 65nm node\";\n", m.Tech)
	fmt.Fprintf(&b, "  time_unit : \"1ps\";\n")
	fmt.Fprintf(&b, "  capacitive_load_unit (1, ff);\n")
	fmt.Fprintf(&b, "  voltage_unit : \"1V\";\n")
	fmt.Fprintf(&b, "  nom_voltage : 1.0;\n")
	fmt.Fprintf(&b, "  lu_table_template(delay_vs_load) {\n")
	fmt.Fprintf(&b, "    variable_1 : total_output_net_capacitance;\n")
	fmt.Fprintf(&b, "    index_1 (\"%s\");\n", joinF(m.LoadsF, 1e15))
	fmt.Fprintf(&b, "  }\n")
	if len(m.SlewsS) > 0 {
		fmt.Fprintf(&b, "  lu_table_template(delay_slew_load) {\n")
		fmt.Fprintf(&b, "    variable_1 : input_net_transition;\n")
		fmt.Fprintf(&b, "    variable_2 : total_output_net_capacitance;\n")
		fmt.Fprintf(&b, "    index_1 (\"%s\");\n", joinF(m.SlewsS, 1e12))
		fmt.Fprintf(&b, "    index_2 (\"%s\");\n", joinF(m.LoadsF, 1e15))
		fmt.Fprintf(&b, "  }\n")
	}
	if v := m.Variation; v != nil {
		fmt.Fprintf(&b, "  /* variation model: cnt_count_cv=%g diameter_sigma_nm=%g alignment_p=%g"+
			" (%d-sample ensembles; per-arc delay sigma at the reference load in the timing comments) */\n",
			v.CountCV, v.DiameterSigmaNM, v.AlignmentP, m.VarSamples)
	}

	for _, n := range m.cellNames() {
		c := m.Cells[n]
		fmt.Fprintf(&b, "  cell(%s) {\n", c.Name)
		fmt.Fprintf(&b, "    area : %.2f;\n", c.AreaLam2)
		ins := make([]string, 0, len(c.InputCapF))
		for in := range c.InputCapF {
			ins = append(ins, in)
		}
		sort.Strings(ins)
		for _, in := range ins {
			fmt.Fprintf(&b, "    pin(%s) {\n", in)
			fmt.Fprintf(&b, "      direction : input;\n")
			fmt.Fprintf(&b, "      capacitance : %.5f;\n", c.InputCapF[in]*1e15)
			fmt.Fprintf(&b, "    }\n")
		}
		fmt.Fprintf(&b, "    pin(OUT) {\n")
		fmt.Fprintf(&b, "      direction : output;\n")
		fmt.Fprintf(&b, "      function : \"%s\";\n", c.Function)
		for _, arc := range c.Arcs {
			fmt.Fprintf(&b, "      timing() {\n")
			fmt.Fprintf(&b, "        related_pin : \"%s\";\n", arc.Input)
			if arc.SigmaRefS > 0 {
				fmt.Fprintf(&b, "        /* delay sigma at reference load: %.4f ps */\n", arc.SigmaRefS*1e12)
			}
			fmt.Fprintf(&b, "        timing_sense : negative_unate;\n")
			if sf := arc.Surface; sf != nil {
				for _, kind := range []string{"cell_rise", "cell_fall"} {
					fmt.Fprintf(&b, "        %s(delay_slew_load) {\n", kind)
					fmt.Fprintf(&b, "          values (%s);\n", joinRows(sf.DelayS, 1e12))
					fmt.Fprintf(&b, "        }\n")
				}
				for _, kind := range []string{"rise_transition", "fall_transition"} {
					fmt.Fprintf(&b, "        %s(delay_slew_load) {\n", kind)
					fmt.Fprintf(&b, "          values (%s);\n", joinRows(sf.OutSlewS, 1e12))
					fmt.Fprintf(&b, "        }\n")
				}
			} else {
				for _, kind := range []string{"cell_rise", "cell_fall"} {
					fmt.Fprintf(&b, "        %s(delay_vs_load) {\n", kind)
					fmt.Fprintf(&b, "          values (\"%s\");\n", joinF(arc.Table.DelaysS, 1e12))
					fmt.Fprintf(&b, "        }\n")
				}
			}
			fmt.Fprintf(&b, "      }\n")
		}
		fmt.Fprintf(&b, "    }\n")
		fmt.Fprintf(&b, "  }\n")
	}
	fmt.Fprintf(&b, "}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func joinF(vs []float64, scale float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4f", v*scale)
	}
	return strings.Join(parts, ", ")
}

// joinRows renders a 2-D table body: one quoted row per slew point, the
// Liberty multi-row values() syntax.
func joinRows(rows [][]float64, scale float64) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = "\"" + joinF(r, scale) + "\""
	}
	return strings.Join(parts, ", ")
}
