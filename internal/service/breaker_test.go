package service

import (
	"fmt"
	"testing"
	"time"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	b := newBreaker(3, time.Minute)
	for i := 0; i < 2; i++ {
		if _, open := b.deny("app", t0); open {
			t.Fatalf("circuit open after %d failures, trip is 3", i)
		}
		if b.record("app", true, t0) {
			t.Fatalf("record %d reported a trip, trip is 3", i)
		}
	}
	if _, open := b.deny("app", t0); open {
		t.Fatal("circuit open after 2 failures, trip is 3")
	}
	if !b.record("app", true, t0) {
		t.Fatal("third consecutive failure did not trip the circuit")
	}
	wait, open := b.deny("app", t0.Add(time.Second))
	if !open {
		t.Fatal("circuit not open after trip")
	}
	if wait <= 0 || wait > time.Minute {
		t.Fatalf("remaining cooldown %v, want in (0, 1m]", wait)
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b := newBreaker(2, time.Minute)
	b.record("app", true, t0)
	b.record("app", false, t0) // success wipes the failure history
	b.record("app", true, t0)
	if _, open := b.deny("app", t0); open {
		t.Fatal("circuit open although failures were never consecutive")
	}
}

func TestBreakerIsPerFingerprint(t *testing.T) {
	b := newBreaker(1, time.Minute)
	b.record("bad", true, t0)
	if _, open := b.deny("bad", t0); !open {
		t.Fatal("tripped fingerprint not open")
	}
	if _, open := b.deny("good", t0); open {
		t.Fatal("unrelated fingerprint open")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b := newBreaker(1, time.Minute)
	b.record("app", true, t0)

	// During cooldown: denied.
	if _, open := b.deny("app", t0.Add(30*time.Second)); !open {
		t.Fatal("circuit closed inside the cooldown")
	}
	// After cooldown: exactly one probe is admitted.
	later := t0.Add(2 * time.Minute)
	if _, open := b.deny("app", later); open {
		t.Fatal("probe denied after cooldown")
	}
	if _, open := b.deny("app", later); !open {
		t.Fatal("second submission admitted while the probe is in flight")
	}

	// A good probe closes the circuit for real.
	if b.record("app", false, later) {
		t.Fatal("good probe reported a trip")
	}
	if _, open := b.deny("app", later); open {
		t.Fatal("circuit open after a good probe")
	}
}

func TestBreakerBadProbeReopens(t *testing.T) {
	b := newBreaker(1, time.Minute)
	b.record("app", true, t0)
	later := t0.Add(2 * time.Minute)
	if _, open := b.deny("app", later); open {
		t.Fatal("probe denied after cooldown")
	}
	if !b.record("app", true, later) {
		t.Fatal("bad probe did not re-trip the circuit")
	}
	if _, open := b.deny("app", later.Add(time.Second)); !open {
		t.Fatal("circuit closed right after a bad probe")
	}
	// And the new cooldown starts at the probe failure.
	if _, open := b.deny("app", later.Add(2*time.Minute)); open {
		t.Fatal("second probe denied after the second cooldown")
	}
}

// TestBreakerEntriesBounded pins the eviction fix: fingerprints that
// fail fewer than `trip` times and are never resubmitted used to leave
// their entries in the map forever, so a long-lived daemon's breaker
// grew without bound under one-off failures. The TTL sweep keeps the
// map bounded by the failure *rate*, not the daemon's lifetime.
func TestBreakerEntriesBounded(t *testing.T) {
	b := newBreaker(3, time.Minute)
	b.entryTTL = time.Minute
	now := t0
	for i := 0; i < 2000; i++ {
		now = now.Add(time.Second)
		fp := fmt.Sprintf("one-off-%d", i)
		if _, open := b.deny(fp, now); open {
			t.Fatalf("fresh fingerprint %s denied", fp)
		}
		b.record(fp, true, now)
	}
	b.mu.Lock()
	n := len(b.entries)
	b.mu.Unlock()
	// One entry per second of TTL plus at most one sweep interval of
	// slack — far below the 2000 distinct failures seen.
	if limit := int((b.entryTTL + b.entryTTL/4) / time.Second); n > limit {
		t.Fatalf("entries map holds %d entries after 2000 one-off failures, want <= %d (TTL eviction broken)", n, limit)
	}
	if n == 0 {
		t.Fatal("eviction dropped the freshest entries too")
	}
}

// TestBreakerLostProbeReopens pins the probe-deadline fix: a half-open
// probe whose job never reaches record (dropped during drain, say) used
// to leave probing=true forever, permanently denying the fingerprint.
func TestBreakerLostProbeReopens(t *testing.T) {
	b := newBreaker(1, time.Minute) // probeTTL defaults to the cooldown
	b.record("app", true, t0)
	probeAt := t0.Add(2 * time.Minute)
	if _, open := b.deny("app", probeAt); open {
		t.Fatal("probe denied after cooldown")
	}
	// The probe's job is dropped: no record ever arrives.

	// Inside the probe window concurrent submissions are denied, with
	// Retry-After scaled to the probe's remaining deadline — not a full
	// cooldown regardless of progress.
	wait, open := b.deny("app", probeAt.Add(45*time.Second))
	if !open {
		t.Fatal("second submission admitted while the probe is in flight")
	}
	if want := 15 * time.Second; wait != want {
		t.Fatalf("half-open Retry-After %v, want remaining probe window %v", wait, want)
	}

	// Past the probe deadline the circuit re-opens from the expiry, so
	// the fingerprint waits out one cooldown instead of forever.
	wait, open = b.deny("app", probeAt.Add(90*time.Second))
	if !open {
		t.Fatal("circuit closed right after a lost probe")
	}
	if want := 30 * time.Second; wait != want {
		t.Fatalf("post-expiry Retry-After %v, want %v (cooldown counted from the probe deadline)", wait, want)
	}

	// After that cooldown a fresh probe is admitted and can close the
	// circuit for real — no permanent denial.
	retryAt := probeAt.Add(3 * time.Minute)
	if _, open := b.deny("app", retryAt); open {
		t.Fatal("fresh probe denied after the re-opened cooldown")
	}
	if b.record("app", false, retryAt) {
		t.Fatal("good probe reported a trip")
	}
	if _, open := b.deny("app", retryAt); open {
		t.Fatal("circuit still open after a good probe")
	}
}

// TestBreakerLostProbeLongGap covers the other expiry path: when the
// next submission arrives after both the probe deadline and the
// follow-up cooldown have passed, it becomes the new probe immediately.
func TestBreakerLostProbeLongGap(t *testing.T) {
	b := newBreaker(1, time.Minute)
	b.record("app", true, t0)
	probeAt := t0.Add(2 * time.Minute)
	if _, open := b.deny("app", probeAt); open {
		t.Fatal("probe denied after cooldown")
	}
	// Probe lost; next traffic arrives much later.
	if _, open := b.deny("app", probeAt.Add(10*time.Minute)); open {
		t.Fatal("submission denied long after the lost probe's deadline and cooldown")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(-1, time.Minute)
	for i := 0; i < 10; i++ {
		b.record("app", true, t0)
	}
	if _, open := b.deny("app", t0); open {
		t.Fatal("disabled breaker denied a submission")
	}
}
