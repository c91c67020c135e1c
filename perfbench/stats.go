package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// median is the middle of xs (mean of the middle two for even counts);
// 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the nearest-rank p-th percentile of sorted s.
func rank(s []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// tailLadder is the percentile ladder the tail is picked from.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// latency summarizes one latency distribution: its median and its tail,
// the highest ladder percentile with at least ten samples beyond it.
type latency struct {
	P50, Tail float64
	TailPct   float64
	N         int
}

func summarize(xs []float64) latency {
	if len(xs) == 0 {
		return latency{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	l := latency{P50: rank(s, 50), N: len(s), TailPct: 50}
	for _, p := range tailLadder {
		i := int(math.Ceil(p/100*float64(len(s)))) - 1
		if len(s)-1-i >= 10 {
			l.Tail, l.TailPct = s[i], p
			break
		}
	}
	if l.Tail == 0 {
		l.Tail = l.P50
	}
	return l
}

// latencies are one latency metric's samples, kept by round for the
// tail and by batch for the median. A failed call counts as an infinite
// latency, so it misses every latency limit.
type latencies struct {
	rounds [][]float64 // every sample, by round
	p50s   []float64   // each batch's median
}

// batch adds round r's next batch of samples.
func (l *latencies) batch(r int, xs []float64) {
	for len(l.rounds) <= r {
		l.rounds = append(l.rounds, nil)
	}
	l.rounds[r] = append(l.rounds[r], xs...)
	if len(xs) > 0 {
		l.p50s = append(l.p50s, summarize(xs).P50)
	}
}

// summary is the median of the batch medians and, over the first n
// rounds, the median of the rounds' tails: a burst of load from
// elsewhere on the machine during a few batches or one round sets
// neither. N counts the samples of those rounds; the tail's percentile
// is the lowest any round reached. A statistic a failed call reaches
// reports the worst finite time instead of infinity.
func (l *latencies) summary(n int) latency {
	var all, tails []float64
	pct := 100.0
	for _, r := range l.rounds[:min(n, len(l.rounds))] {
		if len(r) == 0 {
			continue
		}
		all = append(all, r...)
		s := summarize(r)
		tails = append(tails, s.Tail)
		pct = min(pct, s.TailPct)
	}
	s := latency{P50: median(l.p50s), Tail: median(tails), TailPct: pct, N: len(all)}
	worst := 0.0
	for _, x := range all {
		if !math.IsInf(x, 0) {
			worst = max(worst, x)
		}
	}
	if math.IsInf(s.P50, 0) {
		s.P50 = worst
	}
	if math.IsInf(s.Tail, 0) {
		s.Tail = worst
	}
	return s
}

// machine is the context every result records.
type machine struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func machineContext(root string) machine {
	return machine{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     procField("/proc/cpuinfo", "model name"),
		Commit:       gitCommit(root),
		SourceSHA256: sourceDigest(root),
	}
}

// procField returns the first "key: value" line's value of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	v := strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB")
	kb, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// gitCommit reads HEAD from root/.git without running git; a checkout
// exported without .git reports "unknown" (source_sha256 still
// identifies the code).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (paths and
// contents, in path order), skipping dot directories and build output.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
