package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"flowdroid/internal/apk"
	"flowdroid/internal/core"
	"flowdroid/internal/summarystore"
)

// config is one workload run.
type config struct {
	w    workload
	seed int64
	// n is the number of apps per pass.
	n int
	// budget is the time the measured passes may take; a run still makes
	// minPasses passes. A traced run splits it between timed and traced
	// passes.
	budget     time.Duration
	minPasses  int
	setupProcs int
	trace      bool
	traceOut   string
	// workDir holds the run's summary stores; it is removed at the end.
	workDir string
	log     io.Writer
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo describes the run and its host. Its fields are not gated; they
// keep host contention and the estimator's inputs visible.
type runInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Apps       int    `json:"apps"`
	Passes     int    `json:"passes"`
	// WallAppsPerS is apps over the median pass's summed latency: the raw
	// throughput the best-of-R estimator is robust against.
	WallAppsPerS float64 `json:"wall_apps_per_s"`
	// CalibMS is the reference task's median time in the timed passes;
	// the Raw fields are the time metrics before scaling by calibRef over
	// it.
	CalibMS       float64 `json:"calib_ms"`
	RawAppsPerS   float64 `json:"raw_apps_per_s,omitempty"`
	RawAppMSP50   float64 `json:"raw_app_ms_p50,omitempty"`
	RawSetupS     float64 `json:"raw_setup_s,omitempty"`
	IRLinesPerApp float64 `json:"ir_lines_per_app"`
	TracedPasses  int     `json:"traced_passes,omitempty"`
}

// runner holds one workload's corpus and the state its passes share.
type runner struct {
	c      config
	corp   *corpus
	opts   core.Options
	oracle oracle
	// refJSON and refProps are core.AnalyzeApp's canonical report and
	// propagation count per app, recorded by the warm-up pass.
	refJSON  [][]byte
	refProps []int
	// coldJSON is the canonical report of a storeless analysis of each
	// updated app: play-update's warm reports must equal it.
	coldJSON [][]byte
	// store is play-update's seeded summary store.
	store *storeSnapshot

	attempted, failed int
}

// newRunner generates the corpus and, on play-update, the cold reference
// reports. Neither is part of set-up time.
func newRunner(c config) (*runner, error) {
	corp, err := c.w.generate(c.seed, c.n)
	if err != nil {
		return nil, err
	}
	r := &runner{c: c, corp: corp, opts: core.DefaultOptions()}
	r.opts.Query = core.Query{Sinks: c.w.sinks}
	if c.w.update {
		for i, files := range corp.files {
			res, _, err := r.analyze(files)
			js, ok := r.check(i, res, err)
			if !ok {
				return nil, fmt.Errorf("%s: cold analysis of the updated app failed", corp.names[i])
			}
			r.coldJSON = append(r.coldJSON, js)
		}
		r.opts.SummaryStore = summarystore.Open(filepath.Join(c.workDir, "store"))
	}
	return r, nil
}

// analyze loads and analyzes one app the way a library user does and
// returns the wall time of the two calls.
func (r *runner) analyze(files map[string]string) (*core.Result, time.Duration, error) {
	start := time.Now()
	app, err := apk.LoadFiles(files)
	if err != nil {
		return nil, time.Since(start), err
	}
	res, err := core.AnalyzeApp(context.Background(), app, r.opts)
	return res, time.Since(start), err
}

// check counts one attempted analysis and reports whether it completed
// with exactly the planted leaks. It returns the canonical report.
func (r *runner) check(i int, res *core.Result, err error) ([]byte, bool) {
	r.attempted++
	var js []byte
	if err == nil && res.Status == core.Complete && r.oracle.matches(res.Taint, r.corp.want[i]) {
		js, err = res.Taint.CanonicalJSON()
		if err == nil {
			return js, true
		}
	}
	r.fail(i, "analysis failed: err=%v status=%v", err, statusOf(res))
	return nil, false
}

func statusOf(res *core.Result) string {
	if res == nil {
		return "none"
	}
	return res.Status.String()
}

func (r *runner) fail(i int, format string, args ...any) {
	r.failed++
	fmt.Fprintf(r.c.log, "bench: %s: %s: %s\n", r.c.w.name, r.corp.names[i], fmt.Sprintf(format, args...))
}

// setUp is the work a fresh process does before its timed passes: on
// play-update a cold pass seeding the summary store, then one warm-up
// pass. It returns the summed wall time of the analyses; the checks and
// store copies in between are not counted.
func (r *runner) setUp() (time.Duration, error) {
	var total time.Duration
	if r.c.w.update {
		for i, files := range r.corp.seedFiles {
			res, d, err := r.analyze(files)
			total += d
			r.check(i, res, err)
		}
		snap, err := snapshotStore(r.opts.SummaryStore.Dir())
		if err != nil {
			return 0, fmt.Errorf("snapshotting the seeded store: %w", err)
		}
		r.store = snap
	}
	r.refJSON = make([][]byte, r.c.n)
	r.refProps = make([]int, r.c.n)
	for i, files := range r.corp.files {
		res, d, err := r.analyze(files)
		total += d
		js, ok := r.check(i, res, err)
		if !ok {
			continue
		}
		if r.coldJSON != nil && !bytes.Equal(js, r.coldJSON[i]) {
			r.fail(i, "warm report differs from the cold analysis of the updated app")
		}
		r.refJSON[i], r.refProps[i] = js, res.Counters.Propagations
	}
	if r.failed > 0 {
		return 0, fmt.Errorf("%d of %d set-up analyses failed", r.failed, r.attempted)
	}
	return total, nil
}

// setupCost is what one fresh process's set-up cost: the summed time of
// its set-up analyses, raw and scaled to the reference host, and its peak
// RSS when set-up ends, which covers corpus generation and one full
// analysis of the corpus.
type setupCost struct {
	Seconds    float64 `json:"setup_s"`
	RawSeconds float64 `json:"raw_setup_s"`
	RSSMiB     float64 `json:"peak_rss_mb"`
}

// measureSetUp sets the workload up between two calibration points.
func (r *runner) measureSetUp() (setupCost, error) {
	calib := calibrate()
	d, err := r.setUp()
	if err != nil {
		return setupCost{}, err
	}
	calib = append(calib, calibrate()...)
	return setupCost{d.Seconds() * hostScale(calib), d.Seconds(), peakRSSMiB()}, nil
}

// setupOnce is a -setup-only process: generate, set up, clean up.
func setupOnce(c config) (setupCost, error) {
	defer os.RemoveAll(c.workDir)
	r, err := newRunner(c)
	if err != nil {
		return setupCost{}, err
	}
	return r.measureSetUp()
}

// timing is what the timed passes measured.
type timing struct {
	// samples[p][i] is app i's latency in pass p.
	samples [][]time.Duration
	// calib holds the reference task's times, measured before each pass.
	calib []time.Duration
	// mallocs and allocBytes are the heap allocations of all passes.
	mallocs, allocBytes uint64
	// passTime sums core.Result.PassTimes, latency the sample latencies.
	passTime, latency time.Duration
}

// timed runs passes over the corpus until the budget is spent. Each
// sample is apk.LoadFiles plus core.AnalyzeApp; the oracle check after
// it allocates nothing, so the allocation counts are the program's.
func (r *runner) timed(budget time.Duration) (timing, error) {
	var t timing
	var before, after runtime.MemStats
	start := time.Now()
	for p := 0; p < r.c.minPasses || time.Since(start) < budget; p++ {
		if r.store != nil {
			if err := r.store.restore(); err != nil {
				return t, err
			}
		}
		t.calib = append(t.calib, calibrate()...)
		lat := make([]time.Duration, r.c.n)
		order := r.passOrder(p)
		runtime.ReadMemStats(&before)
		for _, i := range order {
			res, d, err := r.analyze(r.corp.files[i])
			lat[i] = d
			r.attempted++
			if err != nil || res.Status != core.Complete || res.Counters.Propagations != r.refProps[i] ||
				!r.oracle.matches(res.Taint, r.corp.want[i]) {
				r.fail(i, "timed analysis differs from the warm-up: err=%v status=%v", err, statusOf(res))
				continue
			}
			t.latency += d
			for _, pd := range res.PassTimes {
				t.passTime += pd
			}
		}
		runtime.ReadMemStats(&after)
		t.mallocs += after.Mallocs - before.Mallocs
		t.allocBytes += after.TotalAlloc - before.TotalAlloc
		t.samples = append(t.samples, lat)
	}
	return t, nil
}

// passOrder is the order pass p visits the apps in, shuffled from the
// seed. Every pass starts from the same collected heap, so in a fixed
// order the collector's cycles would land on the same apps in every pass
// and best-of-R could not drop them.
func (r *runner) passOrder(p int) []int {
	return rand.New(rand.NewSource(r.c.seed*1000 + int64(p))).Perm(r.c.n)
}

// best returns each app's fastest sample in ms.
func (t timing) best() []float64 {
	out := make([]float64, len(t.samples[0]))
	for i := range out {
		b := t.samples[0][i]
		for _, pass := range t.samples[1:] {
			b = min(b, pass[i])
		}
		out[i] = ms(b)
	}
	return out
}

// passMeans returns each pass's mean app latency in ms.
func (t timing) passMeans() []float64 {
	out := make([]float64, len(t.samples))
	for p, lat := range t.samples {
		var sum time.Duration
		for _, d := range lat {
			sum += d
		}
		out[p] = ms(sum) / float64(len(lat))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measureProcs is GOMAXPROCS while this process sets up and measures
// the workload. The pipeline under DefaultOptions is sequential; with two
// processors on a two-vCPU host the concurrent GC worker on the second
// vCPU slowed the analysis and tripled the pass-to-pass spread of stress
// (17% against 6.6%). Set-up cost is measured in child processes that
// keep the runtime's default, as a user's process would: with one
// processor, peak RSS varied up to 2x with GC timing.
const measureProcs = 1

// runWorkload measures the workload's set-up in fresh processes, then sets
// it up in this one, measures it and returns its metrics.
func runWorkload(c config) (runInfo, result, error) {
	defer os.RemoveAll(c.workDir)
	info := runInfo{
		Workload: c.w.name, Seed: c.seed, Trace: c.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: measureProcs, GoVersion: runtime.Version(),
		Apps: c.n,
	}
	// The set-up processes start before this one grows: Linux carries a
	// parent's peak RSS into its child's ru_maxrss across fork and exec.
	var setups []setupCost
	for i := 0; i < c.setupProcs && !c.trace; i++ {
		s, err := childSetup(c)
		if err != nil {
			return info, result{}, err
		}
		setups = append(setups, s)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(measureProcs))
	r, err := newRunner(c)
	if err != nil {
		return info, result{}, err
	}
	info.IRLinesPerApp = float64(r.corp.irLines) / float64(c.n)
	own, err := r.measureSetUp()
	if err != nil {
		return info, result{}, err
	}
	if len(setups) == 0 {
		setups = append(setups, own)
	}
	budget := c.budget
	if c.trace {
		budget /= 2
	}
	t, err := r.timed(budget)
	if err != nil {
		return info, result{}, err
	}
	info.Passes = len(t.samples)
	info.WallAppsPerS = 1000 / median(t.passMeans())
	info.CalibMS = ms(calibRef) / hostScale(t.calib)
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if !c.trace {
		res.Metrics = endToEnd(c.n, t, setups, &info)
		return info, res, nil
	}
	tr, err := r.traced(budget)
	if err != nil {
		return info, result{}, err
	}
	info.TracedPasses = len(tr.passes)
	if c.traceOut != "" {
		if err := tr.t.write(c.traceOut); err != nil {
			return info, result{}, err
		}
	}
	res = result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: tr.metrics(t)}
	return info, res, nil
}

// endToEnd computes the end-to-end metrics of n apps from the timed
// passes and the set-up processes. Times are scaled to the reference
// host; info receives the raw ones.
func endToEnd(n int, t timing, setups []setupCost, info *runInfo) map[string]metric {
	var secs, raw, rss []float64
	for _, s := range setups {
		secs, raw, rss = append(secs, s.Seconds), append(raw, s.RawSeconds), append(rss, s.RSSMiB)
	}
	best := t.best()
	var sum float64
	for _, b := range best {
		sum += b
	}
	slices.Sort(best)
	info.RawAppsPerS, info.RawAppMSP50, info.RawSetupS = 1000*float64(n)/sum, quantile(best, 0.5), median(raw)
	scale := hostScale(t.calib)
	samples := float64(n * len(t.samples))
	return map[string]metric{
		"setup_s":          {median(secs), "s"},
		"apps_per_s":       {1000 * float64(n) / (sum * scale), "apps/s"},
		"app_ms_p50":       {quantile(best, 0.5) * scale, "ms"},
		"app_ms_p90":       {quantile(best, 0.9) * scale, "ms"},
		"allocs_per_app":   {float64(t.mallocs) / samples, "allocs"},
		"alloc_kb_per_app": {float64(t.allocBytes) / 1024 / samples, "KiB"},
		"peak_rss_mb":      {median(rss), "MiB"},
	}
}

// peakRSSMiB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// storeSnapshot is a seeded summary store held in memory, so that every
// pass can start from identical store state.
type storeSnapshot struct {
	dir   string
	files map[string][]byte
}

func snapshotStore(dir string) (*storeSnapshot, error) {
	s := &storeSnapshot{dir: dir, files: make(map[string][]byte)}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		s.files[p] = data
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(s.files) == 0 {
		return nil, fmt.Errorf("store %s is empty after seeding", dir)
	}
	return s, nil
}

// restore rewrites the store directory to the snapshot, dropping anything
// a warm pass wrote back.
func (s *storeSnapshot) restore() error {
	if err := os.RemoveAll(s.dir); err != nil {
		return fmt.Errorf("restoring the summary store: %w", err)
	}
	for p, data := range s.files {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return fmt.Errorf("restoring the summary store: %w", err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			return fmt.Errorf("restoring the summary store: %w", err)
		}
	}
	return nil
}
