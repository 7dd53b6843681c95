package main

import (
	"runtime"
	"time"
)

// The host this benchmark was built on drifts: the same code ran 10-30%
// slower for tens of minutes at a time, with no steal time reported.
// Every run therefore times a fixed reference task alongside its
// measurements, and scales its time metrics by calibRef over the task's
// median time in that run. The task is the benchmark's own code and
// touches no memory, so a change to the program under test moves the
// measured times but not the scale. Over 34 back-to-back play and stress
// runs the scaling halved the spread of app_ms_p50 (12.7% and 10.0% raw,
// 5.3% and 5.7% scaled); a map-and-sort task tracked the drift worse
// (8.0% and 6.1%), because its memory placement varied per process.

// calibIters sizes the reference task.
const calibIters = 3_000_000

// calibRef is the reference task's time on the reference host, a quiet
// two-vCPU KVM guest (Xeon, Go 1.24).
const calibRef = 4 * time.Millisecond

// calibRuns is how many times each calibration point runs the task.
const calibRuns = 3

// calibSink keeps the reference task's result live.
var calibSink uint64

// calibrate times the reference task calibRuns times. It collects the
// heap first, so that no collection cycle shares the processor with the
// task.
func calibrate() []time.Duration {
	runtime.GC()
	out := make([]time.Duration, calibRuns)
	for r := range out {
		start := time.Now()
		x := calibSink
		for i := 0; i < calibIters; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		calibSink = x
		out[r] = time.Since(start)
	}
	return out
}

// hostScale converts a time measured during a run to reference-host
// time: calibRef over the median of the run's calibration samples.
func hostScale(samples []time.Duration) float64 {
	xs := make([]float64, len(samples))
	for i, d := range samples {
		xs[i] = float64(d)
	}
	return float64(calibRef) / median(xs)
}
