// Package metrics is the observability layer of the analysis pipeline: a
// lightweight, allocation-conscious set of monotonic timers, atomic
// counters, gauges and latency histograms, plus a JSONL trace-event sink
// with explicit start/end spans (trace.go).
//
// Design rules, in order of importance:
//
//  1. Zero cost when disabled. Every instrument is reached through a
//     pointer that is nil when no Recorder is installed; every method is
//     nil-safe, so instrumented code never branches on a separate
//     "enabled" flag and the disabled fast path is a single predictable
//     nil check with no allocation. A nil *Recorder hands out nil
//     instruments, which no-op.
//
//  2. Deterministic reporting is segregated from wall-clock reporting.
//     Instruments are registered under a Class; Snapshot splits them into
//     a Deterministic section (a function of the programs and the
//     configuration on completed runs — byte-identical across repeated
//     runs), a Schedule section (depends on how concurrent analyses
//     interleave or on the environment: queue depths and peaks, service
//     gauges) and a Timings section (wall clock). Trace
//     events always carry wall times; the snapshot is the canonical
//     surface.
//
//  3. Hot paths hold instrument pointers, not names. Counter/Gauge/
//     Histogram lookups intern by name under a lock; solvers resolve
//     their instruments once at construction and then touch only
//     atomics.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Class says which snapshot section an instrument reports under.
type Class int

const (
	// Deterministic marks counters whose final value is a pure function
	// of the analyzed programs and configuration on completed runs. A
	// deadline stops a run at a wall-clock-dependent point, so the
	// guarantee is scoped to completed runs.
	Deterministic Class = iota
	// Schedule marks values that legitimately vary with how concurrent
	// analyses interleave on a shared recorder, or with the environment:
	// queue depths and their peaks, the service's admission counters,
	// summary-store write failures.
	Schedule
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil Counter no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic level with peak tracking. A nil Gauge no-ops.
type Gauge struct {
	v    atomic.Int64
	peak atomic.Int64
}

// Add moves the gauge by delta and updates the peak.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	v := g.v.Add(delta)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Set replaces the gauge value and updates the peak.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Load returns the current level (0 on nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Peak returns the highest level observed (0 on nil).
func (g *Gauge) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// histBuckets is the number of power-of-two latency buckets: bucket i
// counts observations in [2^i, 2^(i+1)) microseconds, the last bucket is
// unbounded. 2^20 us ≈ 1s, plenty for per-item solver latencies.
const histBuckets = 21

// Histogram is a fixed-bucket power-of-two latency histogram. A nil
// Histogram no-ops, so the per-observation cost when metrics are
// disabled is one nil check.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := 0
	for v := us; v > 1 && b < histBuckets-1; v >>= 1 {
		b++
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
}

// HistogramSnapshot is the exported view of a histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	SumUS int64 `json:"sum_us"`
	// Buckets maps the lower bound (in microseconds, power of two) of
	// each non-empty bucket to its count.
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Recorder is the per-run instrument registry plus the optional trace
// sink. All methods are safe on a nil receiver (they no-op or return nil
// instruments) and safe for concurrent use.
type Recorder struct {
	epoch time.Time

	mu       sync.Mutex
	counters map[string]*classedCounter
	gauges   map[string]*classedGauge
	hists    map[string]*Histogram
	timings  map[string]*timing

	trace *Trace
	seq   atomic.Int64
}

type classedCounter struct {
	c     Counter
	class Class
}

type classedGauge struct {
	g     Gauge
	class Class
}

type timing struct {
	total time.Duration
	count int64
}

// New creates an empty Recorder with its monotonic epoch at the call
// time.
func New() *Recorder {
	return &Recorder{
		epoch:    time.Now(),
		counters: make(map[string]*classedCounter),
		gauges:   make(map[string]*classedGauge),
		hists:    make(map[string]*Histogram),
		timings:  make(map[string]*timing),
	}
}

// now is the monotonic microsecond clock of the recorder.
func (r *Recorder) now() int64 {
	return time.Since(r.epoch).Microseconds()
}

// Counter interns the named counter under the given class. Returns nil
// on a nil Recorder; the first registration fixes the class.
func (r *Recorder) Counter(name string, class Class) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.counters[name]
	if e == nil {
		e = &classedCounter{class: class}
		r.counters[name] = e
	}
	return &e.c
}

// Gauge interns the named gauge under the given class. Returns nil on a
// nil Recorder.
func (r *Recorder) Gauge(name string, class Class) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.gauges[name]
	if e == nil {
		e = &classedGauge{class: class}
		r.gauges[name] = e
	}
	return &e.g
}

// Histogram interns the named latency histogram. Returns nil on a nil
// Recorder. Histograms report under the timing side of the snapshot —
// latencies are wall clock by nature.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// recordTiming accumulates a finished span's duration under its name.
func (r *Recorder) recordTiming(name string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.timings[name]
	if t == nil {
		t = &timing{}
		r.timings[name] = t
	}
	t.total += d
	t.count++
}

// TimingSnapshot is the exported view of one span name's accumulated
// wall time.
type TimingSnapshot struct {
	TotalUS int64 `json:"total_us"`
	Count   int64 `json:"count"`
}

// Snapshot is the exported state of a Recorder. Deterministic holds the
// schedule-independent counters (byte-identical across repeated runs on
// completed runs once JSON-marshaled — Go sorts map keys); Schedule and
// Timings hold everything scheduling- or wall-clock-dependent.
type Snapshot struct {
	Deterministic map[string]int64             `json:"deterministic"`
	Schedule      map[string]int64             `json:"schedule"`
	Timings       map[string]TimingSnapshot    `json:"timings"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot exports the current state. Safe on nil (returns an empty
// snapshot). Gauges export their final level under their name and their
// high-water mark under "<name>.peak", both in the gauge's class
// section.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Deterministic: map[string]int64{},
		Schedule:      map[string]int64{},
		Timings:       map[string]TimingSnapshot{},
		Histograms:    map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	section := func(c Class) map[string]int64 {
		if c == Deterministic {
			return s.Deterministic
		}
		return s.Schedule
	}
	for name, e := range r.counters {
		section(e.class)[name] = e.c.Load()
	}
	for name, e := range r.gauges {
		sec := section(e.class)
		sec[name] = e.g.Load()
		sec[name+".peak"] = e.g.Peak()
	}
	for name, t := range r.timings {
		s.Timings[name] = TimingSnapshot{TotalUS: t.total.Microseconds(), Count: t.count}
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Count: h.count.Load(), SumUS: h.sumUS.Load()}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				if hs.Buckets == nil {
					hs.Buckets = map[string]int64{}
				}
				hs.Buckets[bucketLabel(i)] = n
			}
		}
		s.Histograms[name] = hs
	}
	return s
}

// bucketLabel renders bucket i's lower bound in microseconds.
func bucketLabel(i int) string {
	lo := int64(1) << uint(i)
	if i == 0 {
		lo = 0
	}
	return "ge_" + itoa(lo) + "us"
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// DeterministicKeys returns the sorted names of the deterministic
// counters, mostly for tests and schema checks.
func (s Snapshot) DeterministicKeys() []string {
	keys := make([]string, 0, len(s.Deterministic))
	for k := range s.Deterministic {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
