package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"flowdroid/internal/core"
	"flowdroid/internal/irlint"
	"flowdroid/internal/metrics"
	"flowdroid/internal/taint"
)

// The HTTP/JSON surface of the daemon:
//
//	POST /v1/jobs            submit an app package       -> 202 {id,...}
//	GET  /v1/jobs            list retained jobs          -> 200 [...]
//	GET  /v1/jobs/{id}       job status                  -> 200 {...}
//	GET  /v1/jobs/{id}/result finished job's full report -> 200 {...}
//	GET  /healthz            liveness + queue stats      -> 200 / 503
//	GET  /metrics            metrics.Recorder snapshot   -> 200 {...}
//
// Admission rejections are observable, typed, and retriable:
//
//	429 + Retry-After   queue full (ErrQueueFull)
//	503 + Retry-After   circuit open for this app fingerprint
//	503                 draining (shutdown in progress)

// SubmitResponse acknowledges an admitted job.
type SubmitResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	State       string `json:"state"`
}

// JobStatus is the wire form of a job snapshot.
type JobStatus struct {
	ID          string    `json:"id"`
	Fingerprint string    `json:"fingerprint"`
	State       string    `json:"state"`
	Workers     int       `json:"workers,omitempty"`
	Submitted   time.Time `json:"submitted"`
	Started     time.Time `json:"started,omitzero"`
	Finished    time.Time `json:"finished,omitzero"`
	// Status is the core pipeline status once the job is done
	// (Complete, DeadlineExceeded, ...), empty before that.
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Report is the machine-readable result envelope of one analysis run,
// shared by the daemon's job results and cmd/flowdroid -json: status,
// failure and degradation metadata, the core.Counters (whose JSON tags
// are the counter schema), pass reuse, lint diagnostics, the soundness
// report and the leaks. ResultReport fills Leaks with the canonical
// (path-witness-free) form, so two analyses of the same app under the
// same configuration serialize byte-identically regardless of worker
// count; the CLI swaps in the path-witness report.
type Report struct {
	Status   string              `json:"status"`
	Failure  string              `json:"failure,omitempty"`
	Degraded []string            `json:"degraded,omitempty"`
	Counters core.Counters       `json:"counters"`
	Passes   core.PassStats      `json:"passes,omitempty"`
	Lint     []irlint.Diagnostic `json:"lint,omitempty"`
	// Soundness is the reflection pass's account of the app's reflective
	// surface, present only when there is one (the field is omitted for
	// apps with no reflective sites and for reflection-off runs, keeping
	// those envelopes byte-identical to each other).
	Soundness *core.SoundnessReport `json:"soundness,omitempty"`
	Leaks     []taint.LeakReport    `json:"leaks"`
}

// ResultReport converts a finished analysis into the wire envelope.
func ResultReport(res *core.Result) Report {
	rep := Report{
		Status:   res.Status.String(),
		Degraded: res.Degraded,
		Counters: res.Counters,
		Passes:   res.Passes,
		Leaks:    res.Taint.CanonicalReport(),
	}
	if res.Failure != nil {
		rep.Failure = res.Failure.Error()
	}
	if res.Lint != nil {
		rep.Lint = res.Lint.Diagnostics
	}
	if !res.Soundness.Empty() {
		rep.Soundness = res.Soundness
	}
	return rep
}

func statusOf(v JobView) JobStatus {
	st := JobStatus{
		ID:          v.ID,
		Fingerprint: v.Fingerprint,
		State:       v.State.String(),
		Workers:     v.Workers,
		Submitted:   v.Submitted,
		Started:     v.Started,
		Finished:    v.Finished,
	}
	if v.Result != nil {
		st.Status = v.Result.Status.String()
	}
	if v.Err != nil {
		st.Error = v.Err.Error()
	}
	return st
}

// httpError is the JSON error body of every non-2xx response.
type httpError struct {
	Error string `json:"error"`
	// RetryAfterMS is set on retriable rejections (queue full, circuit
	// open, draining) and mirrors the Retry-After header.
	RetryAfterMS int64 `json:"retryAfterMs,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // nothing to do about a client that went away
}

func writeError(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		// Round up to whole seconds: truncation would tell a client with
		// 2.5s of cooldown left to come back after 2s (or, sub-second,
		// after 0s) and get rejected again. The exact wait stays available
		// in the JSON body's retryAfterMs.
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, code, httpError{Error: msg, RetryAfterMS: retryAfter.Milliseconds()})
}

// Handler returns the service's HTTP API. Set pprof to also mount the
// runtime profiling endpoints under /debug/ on the same mux.
func (s *Server) Handler(pprof bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", MetricsHandler(s.rec))
	if pprof {
		registerDebug(mux, s.rec)
	}
	return mux
}

// MetricsHandler serves a recorder's snapshot as JSON. A nil recorder
// serves the empty snapshot, so the endpoint shape is stable whether or
// not metrics are enabled.
func MetricsHandler(rec *metrics.Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, rec.Snapshot())
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err), 0)
		return
	}
	if len(req.Files) == 0 {
		writeError(w, http.StatusBadRequest, "bad request: empty app package (want a non-empty \"files\" map)", 0)
		return
	}
	view, err := s.Submit(req)
	var open *CircuitOpenError
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: view.ID, Fingerprint: view.Fingerprint, State: view.State.String()})
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err.Error(), time.Second)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error(), 0)
	case errors.As(err, &open):
		writeError(w, http.StatusServiceUnavailable, err.Error(), open.RetryAfter)
	default:
		writeError(w, http.StatusBadRequest, err.Error(), 0)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	views := s.Jobs()
	out := make([]JobStatus, len(views))
	for i, v := range views {
		out[i] = statusOf(v)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job", 0)
		return
	}
	writeJSON(w, http.StatusOK, statusOf(view))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job", 0)
		return
	}
	switch view.State {
	case Done:
		writeJSON(w, http.StatusOK, ResultReport(view.Result))
	case Failed:
		writeJSON(w, http.StatusOK, Report{Status: "Error", Failure: view.Err.Error(), Leaks: []taint.LeakReport{}})
	default:
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s is %s, result not ready", view.ID, view.State), 0)
	}
}

// handleHealthz reports liveness. A draining server answers 503 so load
// balancers stop routing to it while in-flight jobs finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	code := http.StatusOK
	status := "ok"
	if st.Draining {
		code = http.StatusServiceUnavailable
		status = "draining"
	}
	writeJSON(w, code, struct {
		Status string `json:"status"`
		Stats
	}{Status: status, Stats: st})
}
