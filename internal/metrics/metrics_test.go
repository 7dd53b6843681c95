package metrics

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderIsFullyNoOp: every method chain off a nil *Recorder
// must be legal and side-effect free — this is the disabled fast path
// the instrumented code relies on.
func TestNilRecorderIsFullyNoOp(t *testing.T) {
	var r *Recorder
	r.Counter("a", Deterministic).Add(3)
	r.Gauge("b", Schedule).Add(2)
	r.Gauge("b", Schedule).Set(7)
	r.Histogram("c").Observe(time.Millisecond)
	r.StartSpan("d").End()
	r.SetTrace(nil)
	s := r.Snapshot()
	if len(s.Deterministic)+len(s.Schedule)+len(s.Timings)+len(s.Histograms) != 0 {
		t.Errorf("nil recorder snapshot not empty: %+v", s)
	}
	if got := r.Counter("a", Deterministic).Load(); got != 0 {
		t.Errorf("nil counter Load = %d, want 0", got)
	}
	if g := r.Gauge("b", Schedule); g.Load() != 0 || g.Peak() != 0 {
		t.Error("nil gauge not zero")
	}
}

// TestCounterConcurrentExactness: the counter must be exact under
// concurrent increments — N goroutines adding M each must total N*M.
func TestCounterConcurrentExactness(t *testing.T) {
	r := New()
	c := r.Counter("taint.propagations", Deterministic)
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*per {
		t.Errorf("counter = %d, want %d", got, goroutines*per)
	}
}

// TestCounterInterning: the same name must return the same counter, and
// a fresh name a fresh one.
func TestCounterInterning(t *testing.T) {
	r := New()
	a := r.Counter("x", Deterministic)
	b := r.Counter("x", Deterministic)
	if a != b {
		t.Error("same name returned distinct counters")
	}
	a.Add(5)
	if got := r.Counter("x", Deterministic).Load(); got != 5 {
		t.Errorf("interned counter lost its value: %d", got)
	}
	if r.Counter("y", Deterministic) == a {
		t.Error("distinct names share a counter")
	}
}

// TestGaugePeak: the peak must track the high-water mark across Add and
// Set, including under concurrency (peak >= any individually observed
// level).
func TestGaugePeak(t *testing.T) {
	r := New()
	g := r.Gauge("queue", Schedule)
	g.Add(5)
	g.Add(3)
	g.Add(-6)
	if g.Load() != 2 || g.Peak() != 8 {
		t.Errorf("gauge = %d peak %d, want 2 peak 8", g.Load(), g.Peak())
	}
	g.Set(4)
	if g.Peak() != 8 {
		t.Errorf("Set lowered the peak to %d", g.Peak())
	}
	g.Set(11)
	if g.Peak() != 11 {
		t.Errorf("peak = %d after Set(11)", g.Peak())
	}
}

// TestHistogramBuckets: observations land in the right power-of-two
// buckets and the aggregates are exact.
func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("alias")
	h.Observe(0)
	h.Observe(time.Microsecond)     // 1us -> bucket ge_0us..? 1 -> b=0
	h.Observe(3 * time.Microsecond) // 3us -> [2,4)
	h.Observe(100 * time.Microsecond)
	s := r.Snapshot().Histograms["alias"]
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	if s.SumUS != 0+1+3+100 {
		t.Errorf("sum = %d, want 104", s.SumUS)
	}
	if s.Buckets["ge_0us"] != 2 {
		t.Errorf("ge_0us bucket = %d, want 2 (0us and 1us)", s.Buckets["ge_0us"])
	}
	if s.Buckets["ge_2us"] != 1 {
		t.Errorf("ge_2us bucket = %d, want 1", s.Buckets["ge_2us"])
	}
	if s.Buckets["ge_64us"] != 1 {
		t.Errorf("ge_64us bucket = %d, want 1 (100us lands in [64,128))", s.Buckets["ge_64us"])
	}
}

// TestSnapshotSectionSegregation: deterministic counters and
// schedule-dependent values must land in separate snapshot sections,
// and timing data must never appear among the deterministic keys.
func TestSnapshotSectionSegregation(t *testing.T) {
	r := New()
	r.Counter("taint.forward_edges", Deterministic).Add(10)
	r.Counter("service.submitted", Schedule).Add(8)
	r.Gauge("taint.queue", Schedule).Set(5)
	sp := r.StartSpan("taint")
	sp.End()

	s := r.Snapshot()
	if s.Deterministic["taint.forward_edges"] != 10 {
		t.Error("deterministic counter missing from Deterministic section")
	}
	if _, ok := s.Deterministic["service.submitted"]; ok {
		t.Error("schedule counter leaked into Deterministic section")
	}
	if s.Schedule["service.submitted"] != 8 {
		t.Error("schedule counter missing from Schedule section")
	}
	if s.Schedule["taint.queue.peak"] != 5 {
		t.Errorf("gauge peak = %d, want 5", s.Schedule["taint.queue.peak"])
	}
	if _, ok := s.Timings["taint"]; !ok {
		t.Error("span timing missing from Timings section")
	}
	for k := range s.Deterministic {
		if k == "taint" {
			t.Error("timing name leaked into Deterministic section")
		}
	}
}

// TestSnapshotJSONDeterminism: two recorders fed the same deterministic
// counters in different orders must marshal byte-identical
// Deterministic sections — the property the run-to-run reproducibility
// tests depend on.
func TestSnapshotJSONDeterminism(t *testing.T) {
	a, b := New(), New()
	a.Counter("x", Deterministic).Add(1)
	a.Counter("y", Deterministic).Add(2)
	b.Counter("y", Deterministic).Add(2)
	b.Counter("x", Deterministic).Add(1)
	ja, err := json.Marshal(a.Snapshot().Deterministic)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b.Snapshot().Deterministic)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("registration order changed the marshaled section:\n%s\nvs\n%s", ja, jb)
	}
}

// TestContextRoundTrip: Into/From must round-trip the recorder, a bare
// context yields nil, and Into(ctx, nil) is the identity.
func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil {
		t.Error("empty context yielded a recorder")
	}
	r := New()
	if got := From(Into(ctx, r)); got != r {
		t.Error("recorder did not round-trip through the context")
	}
	if Into(ctx, nil) != ctx {
		t.Error("Into(ctx, nil) must be the identity")
	}
	// The composed disabled path must be legal end to end.
	From(ctx).Counter("c", Deterministic).Add(1)
	From(ctx).StartSpan("s").End()
}
