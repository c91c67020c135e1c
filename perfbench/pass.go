package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"time"

	"cnfetdk/internal/fabric"
	"cnfetdk/internal/flow"
	"cnfetdk/internal/pipeline"
	"cnfetdk/internal/sweep"
)

// setupReps is how many times each round builds the workload's system
// to time set-up.
const setupReps = 15

// minRounds is the fewest rounds a run makes. Each round runs the cold
// pass on a fresh kit, warm calls on it, the fabric sweep on a fresh
// fleet and store, the job mix on that fleet and a warm start over that
// store; rounds repeat for --seconds (see runPass). Spreading every
// metric's samples over the whole run keeps a burst of load from
// elsewhere on the machine from setting one metric, and the medians
// over rounds reject a burst that covers fewer than half of them.
// Signoff's cold pass alone takes 14-16 s, so its runs stop at two
// rounds; the other workloads make three or four.
const minRounds = 2

// mixCalls is the job-mix round trips per round. Like the warm calls
// (workload.warmCalls) it is a fixed count, not a deadline: a slower
// machine then takes longer over the same calls instead of issuing
// fewer, which would shift the mix of hits and misses the percentiles
// are taken over. --seconds sets how many rounds a run makes.
const mixCalls = 400

// The warm and job-mix phases run in batches, each after a collection,
// so every batch starts from the same heap; their latency medians are
// the median of the batch medians.
const (
	warmBatch = 300
	mixBatch  = 40
)

// opError is one failed operation, kept with its error text so a later
// fix shows up as a lower fail ratio.
type opError struct {
	Phase string `json:"phase"`
	Job   string `json:"job"`
	Error string `json:"error"`
}

// pass is one execution of a workload's phases, traced or not.
type pass struct {
	w     *workload
	cfg   config
	rec   *recorder       // nil when untraced
	trace *pipeline.Trace // flow.WithTrace sink of every kit; nil when untraced

	attempted, failed int
	jobsFailed        int // jobs of the set that failed in the cold pass
	errs              []opError
	checks            []string // failed correctness checks

	setupS    []float64
	wallS     []float64   // cold pass wall time per round
	jobS      [][]float64 // per job (spec index): its cold time per round
	warmLat   latencies
	mixLat    latencies
	untraced  int // rounds before the traced one
	hitMS     []float64
	missMS    []float64
	sweepPPS  []float64 // per round
	warmPPS   []float64 // per round
	leaseMS   []float64
	warmDisk  int64
	counters  map[string]float64
	allocMB   float64
	gcCycles  float64
	storeSeq  int
	refs      map[string][]byte // request JSON -> outcome (result JSON without Stages)
	refReport []byte            // canonical JSON of round 0's cold report
	fabricRef []byte            // the same for the fleet phases' job set
	jobs      int               // size of the job set
}

func (p *pass) fail(phase, job string, err error) {
	p.failed++
	p.errs = append(p.errs, opError{Phase: phase, Job: job, Error: err.Error()})
}

func (p *pass) checkf(format string, args ...any) {
	p.checks = append(p.checks, fmt.Sprintf(format, args...))
}

// newKit is flow.New with the pass's trace attached, recorded as a span.
// Every kit is the sequential reference path (flow.WithWorkers(1)): a
// kit computes on one goroutine, so on a shared two-core machine the
// cold phases time the kit rather than the scheduler, and the runtime
// keeps the other core for the garbage collector.
func (p *pass) newKit(ctx context.Context, req string, opts ...flow.Option) (*flow.Kit, error) {
	opts = append([]flow.Option{flow.WithWorkers(1)}, opts...)
	if p.trace != nil {
		opts = append(opts, flow.WithTrace(p.trace))
	}
	sp := p.rec.begin(0, req, "flow.New")
	kit, err := flow.New(ctx, opts...)
	sp.end(err)
	return kit, err
}

// storeDir is a fresh artifact-store directory under the run's scratch.
func (p *pass) storeDir() string {
	p.storeSeq++
	return fmt.Sprintf("%s/store-%d", p.cfg.tmp, p.storeSeq)
}

func (p *pass) reports() []pipeline.StageReport { return p.trace.Reports() }

// traced reports whether the current round records spans and counters.
func (p *pass) traced() bool { return p.rec != nil }

// tracedCalls is how many calls of the warm and job-mix phases get
// spans; the rest still count in the stage totals.
const tracedCalls = 2000

// recFor is the recorder for the i-th call of the warm or job-mix phase.
func (p *pass) recFor(i int) *recorder {
	if i >= tracedCalls {
		return nil
	}
	return p.rec
}

// runPass runs rounds of w's phases and checks their outputs. It makes
// at least minRounds rounds and starts another while the rounds so
// far, plus one more of their average length, fit in --seconds. With
// traced set, the last of those rounds records spans and stage traces
// and gathers the per-layer counters; the untraced rounds before it
// are the baseline its tracing overhead is measured against.
func runPass(ctx context.Context, w *workload, cfg config, traced bool) (*pass, error) {
	p := &pass{w: w, cfg: cfg, counters: map[string]float64{}, refs: map[string][]byte{}}
	spec := w.spec(cfg.seed, cfg.tiny)
	points, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	fspec := w.fabricSpec(spec)
	fpoints, err := fspec.Expand()
	if err != nil {
		return nil, err
	}
	var ms0 runtime.MemStats

	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	if !w.sweepIn {
		order = rand.New(rand.NewSource(cfg.seed)).Perm(len(points))
	}
	start, budget := time.Now(), time.Duration(cfg.seconds)*time.Second
	left := 1 // rounds that must fit in the budget from this one on
	if traced {
		left = 2
	}
	for r := 0; !p.traced(); r++ { // the traced round is the last
		el := time.Since(start)
		if r >= minRounds+1-left && el+time.Duration(left)*el/time.Duration(r) > budget {
			if !traced {
				break
			}
			p.untraced = r
			p.rec, p.trace = newRecorder(), &pipeline.Trace{}
			runtime.ReadMemStats(&ms0)
		}
		if err := p.setup(ctx, r); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		kit, err := p.newKit(ctx, fmt.Sprintf("kit-%d", r))
		if err != nil {
			return nil, err
		}
		rep, err := p.cold(ctx, kit, spec, points, order, r)
		if err != nil {
			return nil, fmt.Errorf("cold pass: %w", err)
		}
		jobs, err := p.roundJobs(rep, points, order, r)
		if err != nil {
			return nil, err
		}
		if r == 0 {
			if err := p.fabricReference(rep, points, fspec, fpoints); err != nil {
				return nil, err
			}
		}
		p.warm(ctx, kit, jobs, r)
		if err := p.fabric(ctx, fspec, kit, fabricJobs(jobs, fpoints), r); err != nil {
			return nil, err
		}
	}
	if p.warmDisk == 0 {
		p.checkf("warm start: store.disk_hits = 0, want > 0")
	}

	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		p.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		p.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	}
	return p, nil
}

// setup times building the workload's system setupReps times in round
// r, each after a collection: the in-process kit (flow.New), or for
// fleet workloads the whole fleet. The built systems are discarded;
// the phases build their own.
func (p *pass) setup(ctx context.Context, r int) error {
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		req := fmt.Sprintf("setup-%d-%d", r, i)
		p.attempted++
		t0 := time.Now()
		if p.w.setupFleet {
			f, err := p.newFleet(ctx, p.storeDir(), req)
			if err != nil {
				return err
			}
			p.setupS = append(p.setupS, time.Since(t0).Seconds())
			f.close()
			continue
		}
		if _, err := p.newKit(ctx, req); err != nil {
			return err
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
	}
	return nil
}

// job is one request of the job set with its reference key.
type job struct {
	id  string
	req flow.Request
	key string
	res *flow.Result // cold result, Stages stripped
}

func requestKey(req flow.Request) string {
	b, _ := json.Marshal(req) // a flow.Request always marshals
	return string(b)
}

// stagesField is the last field of a marshalled flow.Result: its
// execution trace. Everything before it is the job's outcome.
var stagesField = []byte(`,"stages":`)

// splitResult compacts a marshalled flow.Result into buf and splits it
// into its outcome bytes (comparable across runs and servers) and its
// stage traces, without decoding the outcome. The outcome aliases buf.
func splitResult(buf *bytes.Buffer, b []byte) ([]byte, []flow.StageTrace, error) {
	buf.Reset()
	if err := json.Compact(buf, b); err != nil {
		return nil, nil, fmt.Errorf("result: %w", err)
	}
	c := buf.Bytes()
	i := bytes.LastIndex(c, stagesField)
	if i < 0 {
		return nil, nil, fmt.Errorf("result has no stages field")
	}
	var tail struct {
		Stages []flow.StageTrace `json:"stages"`
	}
	if err := json.Unmarshal(append([]byte("{"), c[i+1:]...), &tail); err != nil {
		return nil, nil, fmt.Errorf("result stages: %w", err)
	}
	return c[:i], tail.Stages, nil
}

// outcome is the comparable form of a result: its JSON without Stages.
func outcome(res *flow.Result) []byte {
	c := *res
	c.Stages = nil
	b, _ := json.Marshal(&c) // a flow.Result always marshals
	out, _, _ := splitResult(new(bytes.Buffer), b)
	return out
}

// roundJobs checks round r's cold run and returns the jobs that
// succeeded, in execution order, each with its cold result. Round 0's
// results are the reference: the later rounds must reproduce its
// canonical report, and every other phase is checked against its
// outcomes. Nothing of a round's kit outlives the round, so later
// rounds measure the same heap as the first.
func (p *pass) roundJobs(rep *sweep.Report, points []sweep.Point, order []int, r int) ([]job, error) {
	canon, err := rep.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	if r == 0 {
		p.refReport, p.jobs = canon, len(rep.Points)
	} else if !bytes.Equal(canon, p.refReport) {
		p.checkf("cold run %d: canonical report differs from cold run 0", r)
	}
	var ok []job
	for _, i := range order {
		pr := rep.Points[i]
		if pr.Error != "" {
			if r == 0 {
				p.jobsFailed++
			}
			continue
		}
		j := job{id: pr.ID, req: points[i].Request, key: requestKey(points[i].Request), res: pr.Result}
		if r == 0 {
			p.refs[j.key] = outcome(pr.Result)
		}
		ok = append(ok, j)
	}
	if r == 0 && p.w.check != nil {
		p.w.check(p, ok)
	}
	return ok, nil
}

// fabricReference keeps the canonical report the fleet phases must
// reproduce: round 0's cold results for the fabric spec's points,
// assembled as that spec's report.
func (p *pass) fabricReference(rep *sweep.Report, points []sweep.Point, fspec sweep.Spec, fpoints []sweep.Point) error {
	byKey := map[string]sweep.PointResult{}
	for i, pt := range points {
		byKey[requestKey(pt.Request)] = rep.Points[i]
	}
	prs := make([]sweep.PointResult, len(fpoints))
	for i, fp := range fpoints {
		pr, ok := byKey[requestKey(fp.Request)]
		if !ok {
			return fmt.Errorf("fabric point %s is not in the job set", fp.ID)
		}
		pr.Index, pr.ID, pr.Params = fp.Index, fp.ID, fp.Params
		prs[i] = pr
	}
	frep, err := sweep.Assemble(fspec, prs)
	if err != nil {
		return err
	}
	p.fabricRef, err = frep.CanonicalJSON()
	return err
}

// fabricJobs is the jobs whose requests are among the fabric points,
// in their order.
func fabricJobs(jobs []job, fpoints []sweep.Point) []job {
	keys := map[string]bool{}
	for _, fp := range fpoints {
		keys[requestKey(fp.Request)] = true
	}
	var out []job
	for _, j := range jobs {
		if keys[j.key] {
			out = append(out, j)
		}
	}
	return out
}

// cold runs the job set once on a fresh kit and times it (wall_s): one
// caller issuing Kit.Run in the seed-drawn order, or sweep.Run. Jobs
// are not separated by collections: those kept the heap so small that
// the peak resident set swung by a third with where the collector
// happened to run inside the largest transient.
func (p *pass) cold(ctx context.Context, kit *flow.Kit, spec sweep.Spec, points []sweep.Point, order []int, r int) (*sweep.Report, error) {
	runtime.GC()
	rep, err := p.coldRun(ctx, kit, spec, points, order, r)
	if err != nil {
		return nil, err
	}
	for _, pr := range rep.Points {
		p.attempted++
		if pr.Error != "" {
			p.fail(fmt.Sprintf("cold-%d", r), pr.ID, fmt.Errorf("%s", pr.Error))
		}
	}
	return rep, nil
}

func (p *pass) coldRun(ctx context.Context, kit *flow.Kit, spec sweep.Spec, points []sweep.Point, order []int, r int) (*sweep.Report, error) {
	if p.w.sweepIn {
		mark := len(p.reports())
		sp := p.rec.begin(0, fmt.Sprintf("cold-%d", r), "sweep.Run")
		t0 := time.Now()
		rep, err := sweep.Run(ctx, kit, spec)
		p.wallS = append(p.wallS, time.Since(t0).Seconds())
		sp.reports(p.reports()[mark:])
		sp.end(err)
		return rep, err
	}
	prs := make([]sweep.PointResult, len(points))
	if p.jobS == nil {
		p.jobS = make([][]float64, len(points))
	}
	t0 := time.Now()
	for _, i := range order {
		pt := points[i]
		sp := p.rec.begin(0, fmt.Sprintf("cold-%d-%d", r, i), "Kit.Run")
		tj := time.Now()
		res, err := kit.Run(ctx, pt.Request)
		p.jobS[i] = append(p.jobS[i], time.Since(tj).Seconds())
		if res != nil {
			sp.stages(res.Stages)
		}
		sp.end(err)
		prs[i] = sweep.PointResult{Index: pt.Index, ID: pt.ID, Params: pt.Params}
		if err != nil {
			prs[i].Error = err.Error()
			continue
		}
		res.Stages = nil
		prs[i].Result = res
	}
	p.wallS = append(p.wallS, time.Since(t0).Seconds())
	return sweep.Assemble(spec, prs)
}

// warm re-issues the jobs that succeeded cold, in order and cyclically,
// on round r's now-warm kit: every call is a fully cached Kit.Run. Each
// result must equal its cold result.
func (p *pass) warm(ctx context.Context, kit *flow.Kit, jobs []job, r int) {
	if len(jobs) == 0 {
		p.checkf("warm: no job succeeded cold")
		return
	}
	n := max(p.w.warmCalls, len(jobs))
	var lat []float64
	for i := 0; i < n; i++ {
		if i%warmBatch == 0 {
			p.warmLat.batch(r, lat)
			lat = lat[:0]
			runtime.GC()
		}
		j := jobs[i%len(jobs)]
		p.attempted++
		sp := p.recFor(i).begin(0, fmt.Sprintf("warm-%d-%d", r, i), "Kit.Run")
		t0 := time.Now()
		res, err := kit.Run(ctx, j.req)
		d := ms(time.Since(t0))
		if res != nil {
			sp.stages(res.Stages)
		}
		sp.end(err)
		if err != nil {
			p.fail("warm", j.id, err)
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, d)
		// A cached result shares its stage values with the cold one, so
		// DeepEqual mostly compares pointers and allocates nothing.
		res.Stages = nil
		if !reflect.DeepEqual(res, j.res) {
			p.checkf("warm: %s differs from its cold result", j.id)
		}
	}
	p.warmLat.batch(r, lat)
}

// fabric runs round r's fleet phases: the fabric spec sharded over a
// fresh fleet on an empty store (cold kits), the job mix on that fleet,
// then a warm start over its store. jobs are the fabric spec's jobs
// that succeeded cold; kit is the round's in-process kit, which
// computes the job mix's reference outcomes.
func (p *pass) fabric(ctx context.Context, spec sweep.Spec, kit *flow.Kit, jobs []job, r int) error {
	dir := p.storeDir()
	req := fmt.Sprintf("sweep-fabric-%d", r)
	f, err := p.newFleet(ctx, dir, req)
	if err != nil {
		return err
	}
	rep, secs, err := p.runSweep(ctx, f, spec, req, true)
	if err == nil {
		p.sweepPPS = append(p.sweepPPS, float64(len(rep.Points))/secs)
		if p.traced() {
			p.fabricCounters(rep, f)
		}
		err = p.mix(ctx, f, kit, jobs, r)
	}
	if err == nil {
		err = p.storeCounters(ctx, f)
	}
	f.close()
	if err != nil {
		return fmt.Errorf("fabric round %d: %w", r, err)
	}
	return p.warmStart(ctx, dir, spec, r)
}

func (p *pass) fabricCounters(rep *sweep.Report, f *fleet) {
	p.counters["fabric.leases"] = float64(rep.Trace.Leases)
	p.counters["fabric.lease_retries"] = float64(rep.Trace.LeaseRetries)
	p.counters["sweep.cache_hit_stages"] = float64(rep.Trace.CacheHitStages)
	p.counters["sweep.total_stages"] = float64(rep.Trace.TotalStages)
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, ws := range f.coord.Workers() {
		lo, hi = min(lo, ws.Points), max(hi, ws.Points)
	}
	p.counters["fabric.point_skew"] = float64(hi) / float64(max(lo, 1))
}

// runSweep is one Coordinator.RunSweep, timed and checked: its points
// count as operations and its canonical bytes must equal the
// in-process reference. Each lease is a child span from dispatch to
// done; timeLeases also keeps those durations for fabric.lease_ms_p50.
func (p *pass) runSweep(ctx context.Context, f *fleet, spec sweep.Spec, req string, timeLeases bool) (*sweep.Report, float64, error) {
	runtime.GC()
	mark := len(p.reports())
	sp := p.rec.begin(0, req, "Coordinator.RunSweep")
	type inflight struct {
		at time.Time
		sp *open
	}
	var mu sync.Mutex
	leases := map[[2]int]inflight{}
	onLease := func(ev fabric.LeaseEvent) {
		mu.Lock()
		defer mu.Unlock()
		k := [2]int{ev.Offset, ev.Attempt}
		if ev.State == "dispatch" {
			name := fmt.Sprintf("lease [%d,%d) %s", ev.Offset, ev.Offset+ev.Count, ev.Worker)
			leases[k] = inflight{at: time.Now(), sp: p.rec.begin(sp.id(), req, name)}
			return
		}
		l := leases[k]
		delete(leases, k)
		if ev.State != "done" {
			l.sp.end(fmt.Errorf("lease %s: %s", ev.State, ev.Error))
			return
		}
		l.sp.end(nil)
		if timeLeases && p.traced() {
			p.leaseMS = append(p.leaseMS, ms(time.Since(l.at)))
		}
	}
	t0 := time.Now()
	rep, err := f.coord.RunSweep(ctx, spec, fabric.RunOptions{OnLease: onLease})
	secs := time.Since(t0).Seconds()
	sp.reports(p.reports()[mark:])
	sp.end(err)
	if err != nil {
		return nil, 0, err
	}
	for _, pr := range rep.Points {
		p.attempted++
		if pr.Error != "" {
			p.fail(req, pr.ID, fmt.Errorf("%s", pr.Error))
		}
	}
	canon, err := rep.CanonicalJSON()
	if err != nil {
		return nil, 0, err
	}
	if !bytes.Equal(canon, p.fabricRef) {
		p.checkf("%s: canonical report differs from the in-process reference", req)
	}
	// Taking mu orders the last OnLease call's writes to p.leaseMS
	// before the caller reads them.
	mu.Lock()
	defer mu.Unlock()
	return rep, secs, nil
}

// mix runs the closed-loop service job mix: one client sends each
// POST /v1/jobs only after the previous reply, to the round's workers
// in turn. Draws come from the workload's key space, or from the jobs
// that succeeded cold, in the same seed-drawn sequence every round.
// Every reply must equal the in-process kit's result for the same
// request.
// The client compares a reply's outcome bytes with the first reply for
// the same key and keeps only that first one, so checking adds little
// work to the timed loop.
func (p *pass) mix(ctx context.Context, f *fleet, kit *flow.Kit, jobs []job, r int) error {
	if len(jobs) == 0 {
		return nil
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	var buf bytes.Buffer
	first := map[string][]byte{} // request JSON -> first reply outcome
	rng := rand.New(rand.NewSource(p.cfg.seed * 7919))
	var lat []float64
	for i := 0; i < mixCalls; i++ {
		if i%mixBatch == 0 {
			p.mixLat.batch(r, lat)
			lat = lat[:0]
			runtime.GC()
		}
		var req flow.Request
		if p.w.mix != nil {
			req = p.w.mix(rng, p.cfg.seed, p.cfg.tiny)
		} else {
			req = jobs[rng.Intn(len(jobs))].req
		}
		body, _ := json.Marshal(req) // a flow.Request always marshals
		id := fmt.Sprintf("mix-%d-%d", r, i)
		p.attempted++
		sp := p.recFor(i).begin(0, id, "POST /v1/jobs")
		t0 := time.Now()
		status, b, err := postJob(ctx, hc, f.servers[i%len(f.servers)].URL, body)
		d := ms(time.Since(t0))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(b))
		}
		var out []byte
		var stages []flow.StageTrace
		if err == nil {
			out, stages, err = splitResult(&buf, b)
		}
		if err != nil {
			sp.end(err)
			p.fail("mix", id, err)
			lat = append(lat, math.Inf(1))
			continue
		}
		sp.stages(stages)
		sp.end(nil)
		lat = append(lat, d)
		if p.traced() {
			computed := false
			for _, st := range stages {
				computed = computed || !st.Cached
			}
			if computed {
				p.missMS = append(p.missMS, d)
			} else {
				p.hitMS = append(p.hitMS, d)
			}
		}
		key := string(body)
		if prev, ok := first[key]; !ok {
			first[key] = append([]byte(nil), out...)
		} else if !bytes.Equal(prev, out) {
			p.checkf("mix: replies for %s differ from each other", key)
		}
	}
	p.mixLat.batch(r, lat)
	for key, out := range first {
		want, err := p.refOutcome(ctx, kit, key)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, want) {
			p.checkf("mix: reply for %s differs from the in-process result", key)
		}
	}
	return nil
}

// refOutcome is the in-process outcome for a request, computed
// (untimed) on the kit for keys the cold pass did not cover.
func (p *pass) refOutcome(ctx context.Context, kit *flow.Kit, key string) ([]byte, error) {
	if want, ok := p.refs[key]; ok {
		return want, nil
	}
	var req flow.Request
	if err := json.Unmarshal([]byte(key), &req); err != nil {
		return nil, err
	}
	res, err := kit.Run(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("mix reference for %s: %w", key, err)
	}
	p.refs[key] = outcome(res)
	return p.refs[key], nil
}

// storeCounters adds a fleet's per-tier store counters (GET /v1/cache)
// in the traced round.
func (p *pass) storeCounters(ctx context.Context, f *fleet) error {
	if !p.traced() {
		return nil
	}
	st, err := f.cacheStats(ctx)
	if err != nil {
		return err
	}
	c := p.counters
	c["store.mem_hits"] += float64(st.Mem.Hits)
	c["store.mem_misses"] += float64(st.Mem.Misses)
	c["store.mem_evictions"] += float64(st.Mem.Evictions)
	c["store.disk_hits"] += float64(st.Disk.Hits)
	c["store.disk_misses"] += float64(st.Disk.Misses)
	c["store.disk_puts"] += float64(st.Disk.Puts)
	c["store.disk_errors"] += float64(st.Disk.Errors)
	return nil
}

// warmStart reruns the sweep on a fresh fleet (cold memory) over the
// store round r's fabric sweep filled: the store's read side.
func (p *pass) warmStart(ctx context.Context, dir string, spec sweep.Spec, r int) error {
	req := fmt.Sprintf("sweep-warmstart-%d", r)
	f, err := p.newFleet(ctx, dir, req)
	if err != nil {
		return err
	}
	rep, secs, err := p.runSweep(ctx, f, spec, req, false)
	if err == nil {
		p.warmPPS = append(p.warmPPS, float64(len(rep.Points))/secs)
		var st pipeline.StoreStats
		st, err = f.cacheStats(ctx)
		if err == nil {
			p.warmDisk += st.Disk.Hits
			err = p.storeCounters(ctx, f)
		}
	}
	f.close()
	if err != nil {
		return fmt.Errorf("warm start: %w", err)
	}
	return nil
}

// coldWall is the cold pass's wall time. For one caller issuing Kit.Run
// it sums each job's median cold time over the rounds, so a burst of
// load on the machine during one round's job does not move it; for
// sweep.Run it is the median pass time.
func (p *pass) coldWall() float64 {
	if p.jobS == nil {
		return median(p.wallS)
	}
	sum := 0.0
	for _, ts := range p.jobS {
		sum += median(ts)
	}
	return sum
}
