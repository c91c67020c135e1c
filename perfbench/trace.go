package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cnfetdk/internal/flow"
	"cnfetdk/internal/pipeline"
)

// span is one timed call the benchmark made into the program, or a
// stage report attached under it. Spans of one request share Req.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Req     string  `json:"req"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	Cached  bool    `json:"cached,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// maxSpans bounds the spans a run keeps (about 15 MB of JSON); spans
// past the bound are counted, not kept.
const maxSpans = 100_000

// recorder keeps spans in memory until the run ends. A nil recorder —
// the untraced pass — records nothing.
type recorder struct {
	t0      time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	r     *recorder
	s     span
	start time.Time
}

// begin starts a span under parent (0 = root).
func (r *recorder) begin(parent int64, req, name string) *open {
	if r == nil {
		return nil
	}
	now := time.Now()
	return &open{r: r, start: now, s: span{ID: r.ids.Add(1), Parent: parent, Req: req, Name: name,
		StartMS: ms(now.Sub(r.t0))}}
}

func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span with the call's error, if any.
func (o *open) end(err error) {
	if o == nil {
		return
	}
	o.s.DurMS = ms(time.Since(o.start))
	if err != nil {
		o.s.Error = err.Error()
	}
	o.r.add(o.s)
}

// stages attaches a job's Result.Stages as children of the job span.
// Stage traces carry durations only, so children start with the job.
func (o *open) stages(sts []flow.StageTrace) {
	if o == nil {
		return
	}
	for _, st := range sts {
		o.r.add(span{ID: o.r.ids.Add(1), Parent: o.s.ID, Req: o.s.Req, Name: "stage " + st.Stage,
			StartMS: o.s.StartMS, DurMS: st.Millis, Cached: st.Cached, Error: st.Error})
	}
}

// reports attaches pipeline.Trace reports (flow.WithTrace) recorded
// during the span as its children.
func (o *open) reports(rs []pipeline.StageReport) {
	if o == nil {
		return
	}
	for _, rp := range rs {
		s := span{ID: o.r.ids.Add(1), Parent: o.s.ID, Req: o.s.Req, Name: "stage " + rp.Stage,
			StartMS: o.s.StartMS, DurMS: ms(rp.Dur), Cached: rp.Cached}
		if rp.Err != nil {
			s.Error = rp.Err.Error()
		}
		o.r.add(s)
	}
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// all returns the kept spans and how many were dropped past maxSpans.
func (r *recorder) all() ([]span, int) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), r.dropped
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// stageLayers maps flow stage names to the layer that does their work.
// A stage matches a prefix ending in "/" by prefix, any other exactly.
var stageLayers = []struct{ prefix, msMetric, runsMetric string }{
	{"netlist", "synth.netlist_ms", ""},
	{"nldm/", "liberty.nldm_ms", "liberty.nldm_runs"},
	{"delay/", "spice.delay_ms", "spice.delay_runs"},
	{"sta/", "sta.sta_ms", ""},
	{"place/", "place.place_ms", ""},
	{"wire/", "flow.wire_ms", ""},
	{"energy/", "flow.energy_ms", ""},
	{"immunity/", "immunity.immunity_ms", ""},
}

// otherFlowStages are flow stages no workload's metrics single out;
// they still count towards the pipeline totals.
var otherFlowStages = []string{"vardelay/", "liberty/", "gds/"}

func stageMatch(prefix, stage string) bool {
	if strings.HasSuffix(prefix, "/") {
		return strings.HasPrefix(stage, prefix)
	}
	return stage == prefix
}

// layerMetrics folds every flow-stage report of a pass into per-layer
// busy time (uncached stages only), run counts and pipeline cache
// totals. Library-construction reports are not flow stages and are
// skipped.
func layerMetrics(rs []pipeline.StageReport, m map[string]float64) {
	for _, l := range stageLayers {
		m[l.msMetric] = 0
		if l.runsMetric != "" {
			m[l.runsMetric] = 0
		}
	}
	stages, cached := 0, 0
	for _, rp := range rs {
		flowStage := false
		for _, l := range stageLayers {
			if !stageMatch(l.prefix, rp.Stage) {
				continue
			}
			flowStage = true
			if !rp.Cached {
				m[l.msMetric] += ms(rp.Dur)
				if l.runsMetric != "" {
					m[l.runsMetric]++
				}
			}
		}
		for _, p := range otherFlowStages {
			flowStage = flowStage || stageMatch(p, rp.Stage)
		}
		if !flowStage {
			continue
		}
		stages++
		if rp.Cached {
			cached++
		}
	}
	m["pipeline.stages"] = float64(stages)
	m["pipeline.cached_stages"] = float64(cached)
	m["pipeline.hit_ratio"] = 0
	if stages > 0 {
		m["pipeline.hit_ratio"] = float64(cached) / float64(stages)
	}
}
