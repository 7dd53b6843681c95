package service

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is a per-fingerprint circuit breaker over analysis outcomes.
// An app whose analyses keep ending badly — Recovered panics,
// InvalidProgram verdicts, load errors — trips its circuit after
// `trip` consecutive failures: further submissions of the same package
// are rejected up front instead of re-burning an executor on a
// known-poison input. After the cooldown one probe submission is
// admitted (half-open); a good probe closes the circuit, a bad one
// re-opens it for another cooldown.
//
// State is kept per fingerprint and only for apps with a failure
// history: a successful analysis of a closed circuit deletes its
// entry, and entries untouched for entryTTL are evicted by an
// opportunistic sweep from deny/record, so the map does not grow with
// healthy traffic or with fingerprints that failed once and were never
// resubmitted.
type breaker struct {
	mu       sync.Mutex
	trip     int // consecutive failures to open; < 0 disables
	cooldown time.Duration
	// probeTTL bounds a half-open probe's flight time: a probe whose job
	// is dropped without ever reaching record (deadline-cancelled during
	// drain, say) would otherwise leave probing=true forever and deny the
	// fingerprint permanently. Past the deadline the circuit re-opens.
	probeTTL time.Duration
	// entryTTL evicts entries by last touch; zero disables eviction.
	entryTTL  time.Duration
	lastSweep time.Time
	entries   map[string]*breakerEntry
}

type breakerEntry struct {
	state        breakerState
	consecutive  int
	openedAt     time.Time
	probing      bool
	probeStarted time.Time
	lastTouched  time.Time
}

func newBreaker(trip int, cooldown time.Duration) *breaker {
	return &breaker{
		trip:     trip,
		cooldown: cooldown,
		probeTTL: max(cooldown, time.Second),
		entryTTL: max(20*cooldown, 10*time.Minute),
		entries:  map[string]*breakerEntry{},
	}
}

// sweep drops entries untouched for entryTTL. Called with mu held; the
// full scan is amortized by running at most every entryTTL/4.
func (b *breaker) sweep(now time.Time) {
	if b.entryTTL <= 0 || now.Sub(b.lastSweep) < b.entryTTL/4 {
		return
	}
	b.lastSweep = now
	for fp, e := range b.entries {
		if now.Sub(e.lastTouched) > b.entryTTL {
			delete(b.entries, fp)
		}
	}
}

// deny reports whether a submission for fp must be rejected now; when
// denied it returns the remaining wait. An open circuit whose cooldown
// has elapsed transitions to half-open and admits exactly one probe;
// concurrent submissions while the probe is in flight stay denied, with
// Retry-After scaled to the probe's remaining deadline rather than a
// full cooldown.
func (b *breaker) deny(fp string, now time.Time) (time.Duration, bool) {
	if b.trip < 0 {
		return 0, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sweep(now)
	e := b.entries[fp]
	if e == nil {
		return 0, false
	}
	e.lastTouched = now
	switch e.state {
	case breakerClosed:
		return 0, false
	case breakerOpen:
		if wait := b.cooldown - now.Sub(e.openedAt); wait > 0 {
			return wait, true
		}
		e.state = breakerHalfOpen
		e.probing = true
		e.probeStarted = now
		return 0, false
	default: // half-open
		if e.probing {
			expiry := e.probeStarted.Add(b.probeTTL)
			if !now.Before(expiry) {
				// The probe's job never reported back: treat it as lost and
				// re-open the circuit from the moment the deadline passed,
				// so the fingerprint is denied for a cooldown and then gets
				// a fresh probe instead of being denied forever.
				e.state = breakerOpen
				e.openedAt = expiry
				e.probing = false
				if wait := b.cooldown - now.Sub(e.openedAt); wait > 0 {
					return wait, true
				}
				e.state = breakerHalfOpen
				e.probing = true
				e.probeStarted = now
				return 0, false
			}
			return expiry.Sub(now), true
		}
		e.probing = true
		e.probeStarted = now
		return 0, false
	}
}

// record feeds one analysis outcome back. It returns true when this
// outcome tripped (or re-tripped) the circuit.
func (b *breaker) record(fp string, bad bool, now time.Time) bool {
	if b.trip < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sweep(now)
	e := b.entries[fp]
	if e == nil {
		if !bad {
			return false
		}
		e = &breakerEntry{}
		b.entries[fp] = e
	}
	e.lastTouched = now
	if e.state == breakerHalfOpen {
		e.probing = false
		if bad {
			e.state = breakerOpen
			e.openedAt = now
			e.consecutive = b.trip
			return true
		}
		delete(b.entries, fp)
		return false
	}
	if !bad {
		delete(b.entries, fp)
		return false
	}
	e.consecutive++
	if e.state == breakerClosed && e.consecutive >= b.trip {
		e.state = breakerOpen
		e.openedAt = now
		return true
	}
	return false
}
