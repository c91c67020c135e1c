// Command perfbench is the design kit's end-to-end benchmark. It runs
// one workload (signoff, timing or fleet) against the public APIs of
// flow, service, fabric and sweep in one process, checks every output,
// and prints each metric with its unit and sample count; the last line
// of standard output is the JSON result. See README.md.
//
//	python3 perfbench/run.py --workload timing --seed 1 --seconds 35 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// runTimeout bounds one invocation: the benchmark must exit within 180 s.
const runTimeout = 170 * time.Second

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	tiny    bool
	tmp     string // scratch directory for artifact stores
	goldens goldens
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the kit sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"warm_ms_p50", "ms"},
	{"sweep_points_per_s", "1/s"},
	{"rt_ms_p50", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's per-layer metrics. The first three are
// end-to-end numbers too noisy on a shared machine to hold to a bound
// from run to run; the traced run reports them from its untraced rounds.
var perLayer = []metricDef{
	{"warm_ms_tail", "ms"},
	{"rt_ms_tail", "ms"},
	{"warmstart_points_per_s", "1/s"},
	{"synth.netlist_ms", "ms"},
	{"liberty.nldm_ms", "ms"},
	{"liberty.nldm_runs", "count"},
	{"spice.delay_ms", "ms"},
	{"spice.delay_runs", "count"},
	{"sta.sta_ms", "ms"},
	{"place.place_ms", "ms"},
	{"flow.wire_ms", "ms"},
	{"flow.energy_ms", "ms"},
	{"immunity.immunity_ms", "ms"},
	{"pipeline.stages", "count"},
	{"pipeline.cached_stages", "count"},
	{"pipeline.hit_ratio", "ratio"},
	{"store.mem_hits", "count"},
	{"store.mem_misses", "count"},
	{"store.mem_evictions", "count"},
	{"store.disk_hits", "count"},
	{"store.disk_misses", "count"},
	{"store.disk_puts", "count"},
	{"store.disk_errors", "count"},
	{"service.hit_rt_ms_p50", "ms"},
	{"service.miss_rt_ms_p50", "ms"},
	{"fabric.leases", "count"},
	{"fabric.lease_retries", "count"},
	{"fabric.lease_ms_p50", "ms"},
	{"fabric.point_skew", "ratio"},
	{"sweep.cache_hit_stages", "count"},
	{"sweep.total_stages", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"fail_ratio", "ratio"},
	{"trace.wall_ratio", "ratio"},
	{"trace.sweep_ratio", "ratio"},
}

// value is one reported metric: its number, sample count and, for
// tails, the percentile it is.
type value struct {
	v   float64
	n   int
	pct float64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: signoff, timing or fleet")
	seed := fs.Int64("seed", 1, "workload seed (Monte Carlo seeds, job order, job-mix draws)")
	seconds := fs.Int("seconds", 35, "run rounds for about this long (at least the workload's minimum rounds)")
	trace := fs.Int("trace", 0, "1 = trace the last round and print the per-layer metrics")
	size := fs.String("size", "full", "job-set size: full, or tiny for the self-test")
	out := fs.String("out", filepath.Join("perfbench", "out"), "directory for the result file and scratch stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || (*size != "full" && *size != "tiny") {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d, size %q)\n", *name, *seconds, *trace, *size)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*out, "tmp-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cfg := config{seed: *seed, seconds: *seconds, tiny: *size == "tiny", tmp: tmp, goldens: paperGoldens}
	mc := machineContext(".")
	mc.Workload, mc.Seed, mc.Seconds, mc.Trace = w.name, *seed, *seconds, *trace == 1
	ctxLine, _ := json.Marshal(mc) // plain struct; always marshals
	fmt.Fprintf(stdout, "# context %s\n", ctxLine)

	res, err := execute(ctx, w, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range res.errs {
		fmt.Fprintf(stdout, "# failed %s %s: %s\n", e.Phase, e.Job, e.Error)
	}
	for _, c := range res.checks {
		fmt.Fprintf(stdout, "# CHECK FAILED %s\n", c)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v := res.values[d.name]
		line := fmt.Sprintf("%s %.6g %s n=%d", d.name, v.v, d.unit, v.n)
		if v.pct > 0 {
			line += fmt.Sprintf(" p%g", v.pct)
		}
		fmt.Fprintln(stdout, line)
		metrics[d.name] = map[string]any{"value": v.v, "unit": d.unit}
	}
	fmt.Fprintf(stdout, "# fail_ratio %.6g (%d of %d jobs failed cold); %d of %d operations failed\n",
		res.failRatio, res.jobsFailed, res.jobs, res.failed, res.attempted)

	file := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := writeResult(file, mc, res, metrics); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# result file %s\n", file)
	correct := len(res.checks) == 0
	last, _ := json.Marshal(map[string]any{ // plain values; always marshals
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	fmt.Fprintln(stdout, string(last))
	if !correct {
		return 1
	}
	return 0
}

// result is what one invocation reports.
type result struct {
	values            map[string]value
	jobs, jobsFailed  int
	failRatio         float64 // failed jobs over the job set, cold pass
	attempted, failed int
	errs              []opError
	checks            []string
	samples           map[string][]float64 // raw samples behind the medians
	spans             []span
	spansDropped      int
}

// execute runs the workload's pass. Untraced, it yields the end-to-end
// metrics; traced, the per-layer metrics of its last round, with that
// round's tracing overhead against the untraced rounds before it, and
// the tails and warm-start throughput of those untraced rounds.
func execute(ctx context.Context, w *workload, cfg config, traced bool) (*result, error) {
	debug.FreeOSMemory()
	p, err := runPass(ctx, w, cfg, traced)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: p.attempted, failed: p.failed, errs: p.errs, checks: p.checks,
		jobs: p.jobs, jobsFailed: p.jobsFailed, failRatio: float64(p.jobsFailed) / float64(p.jobs),
		samples: map[string][]float64{"setup_s": p.setupS, "wall_s": p.wallS,
			"sweep_points_per_s": p.sweepPPS, "warmstart_points_per_s": p.warmPPS}}
	if !traced {
		res.values = endToEndValues(p)
		return res, nil
	}
	res.spans, res.spansDropped = p.rec.all()
	res.values = layerValues(p)
	res.values["fail_ratio"] = value{v: res.failRatio, n: res.jobs}
	last := p.untraced
	res.values["trace.wall_ratio"] = value{v: p.wallS[last] / median(p.wallS[:last]), n: last + 1}
	res.values["trace.sweep_ratio"] = value{v: median(p.sweepPPS[:last]) / p.sweepPPS[last], n: last + 1}
	warm, mix := p.warmLat.summary(last), p.mixLat.summary(last)
	res.values["warm_ms_tail"] = value{v: warm.Tail, n: warm.N, pct: warm.TailPct}
	res.values["rt_ms_tail"] = value{v: mix.Tail, n: mix.N, pct: mix.TailPct}
	res.values["warmstart_points_per_s"] = value{v: median(p.warmPPS[:last]), n: last}
	return res, nil
}

// endToEndValues reduces an untraced pass to the end-to-end metrics.
func endToEndValues(p *pass) map[string]value {
	warm, mix := p.warmLat.summary(len(p.wallS)), p.mixLat.summary(len(p.wallS))
	return map[string]value{
		"setup_s":            {v: median(p.setupS), n: len(p.setupS)},
		"wall_s":             {v: p.coldWall(), n: len(p.wallS)},
		"warm_ms_p50":        {v: warm.P50, n: warm.N},
		"sweep_points_per_s": {v: median(p.sweepPPS), n: len(p.sweepPPS)},
		"rt_ms_p50":          {v: mix.P50, n: mix.N},
		"peak_rss_mb":        {v: peakRSSMB(), n: 1},
	}
}

// layerValues reduces a traced pass to the per-layer metrics.
func layerValues(t *pass) map[string]value {
	m := map[string]float64{}
	layerMetrics(t.reports(), m)
	for k, v := range t.counters {
		m[k] = v
	}
	vals := map[string]value{}
	for k, v := range m {
		vals[k] = value{v: v, n: 1}
	}
	hit, miss, lease := summarize(t.hitMS), summarize(t.missMS), summarize(t.leaseMS)
	vals["service.hit_rt_ms_p50"] = value{v: hit.P50, n: hit.N}
	vals["service.miss_rt_ms_p50"] = value{v: miss.P50, n: miss.N}
	vals["fabric.lease_ms_p50"] = value{v: lease.P50, n: lease.N}
	vals["runtime.alloc_mb"] = value{v: t.allocMB, n: 1}
	vals["runtime.gc_cycles"] = value{v: t.gcCycles, n: 1}
	return vals
}

// writeResult writes the run's full record: machine context, metrics,
// failed operations with their error text, failed checks and, for
// traced runs, every span.
func writeResult(path string, mc machine, r *result, metrics map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{
		"context": mc, "metrics": metrics, "attempted": r.attempted, "failed": r.failed,
		"jobs": r.jobs, "jobs_failed": r.jobsFailed, "fail_ratio": r.failRatio, "samples": r.samples,
		"errors": r.errs, "checks": r.checks, "spans": r.spans, "spans_dropped": r.spansDropped,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
