package obs

// Runtime health: the process-level half of the self-observing
// runtime. Where Trace answers "what happened to this request?",
// ReadRuntime answers "is this *node* healthy?" — heap live vs goal vs
// GOMEMLIMIT, GC pause and scheduler-latency distributions, goroutine
// count and open file descriptors, read from runtime/metrics when
// something asks: the /metrics render and the anomaly watchdog. A read
// costs tens of microseconds, a small part of a render, so nothing
// samples in the background and no reader sees a stale value.

import (
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// runtimeBounds is the fixed exposition ladder (seconds) the
// runtime/metrics float64 histograms are folded onto: GC pauses sit in
// the µs range, scheduler latencies µs–ms, so the ladder spans 1µs–1s.
var runtimeBounds = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 1,
}

// Histogram is a distribution on fixed upper bounds. Counts are
// cumulative per bound; Count is the total (the +Inf bucket); Sum is
// the sum of the observations.
type Histogram struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// RuntimeSnapshot is one sample of the process health gauges. Sizes
// are bytes; a MemLimitBytes of 0 means no GOMEMLIMIT is set; OpenFDs
// is -1 where the platform offers no cheap way to count them.
type RuntimeSnapshot struct {
	SampledUnix   int64
	Goroutines    int64
	HeapLiveBytes int64
	HeapGoalBytes int64
	MemLimitBytes int64
	GCCycles      uint64
	OpenFDs       int64
	GCPause       Histogram
	SchedLatency  Histogram
}

// Runtime metric names sampled.
const (
	mGoroutines = "/sched/goroutines:goroutines"
	mHeapLive   = "/gc/heap/live:bytes"
	mHeapGoal   = "/gc/heap/goal:bytes"
	mMemLimit   = "/gc/gomemlimit:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCPauses   = "/sched/pauses/total/gc:seconds"
	mSchedLat   = "/sched/latencies:seconds"
)

// runtimeSamples is the sample list ReadRuntime reads, resolved once
// against metrics.All() so a name missing on some toolchain degrades
// to a zero field instead of a panic.
var runtimeSamples = sync.OnceValue(func() []metrics.Sample {
	known := map[string]bool{}
	for _, d := range metrics.All() {
		known[d.Name] = true
	}
	var out []metrics.Sample
	for _, name := range []string{mGoroutines, mHeapLive, mHeapGoal, mMemLimit, mGCCycles, mGCPauses, mSchedLat} {
		if known[name] {
			out = append(out, metrics.Sample{Name: name})
		}
	}
	return out
})

// ReadRuntime takes one sample of the process health gauges. Safe for
// concurrent use: each call reads into its own sample slice.
func ReadRuntime() RuntimeSnapshot {
	samples := slices.Clone(runtimeSamples())
	metrics.Read(samples)
	s := RuntimeSnapshot{SampledUnix: time.Now().Unix(), OpenFDs: countOpenFDs()}
	for _, sm := range samples {
		switch sm.Name {
		case mGoroutines:
			s.Goroutines = int64(sm.Value.Uint64())
		case mHeapLive:
			s.HeapLiveBytes = int64(sm.Value.Uint64())
		case mHeapGoal:
			s.HeapGoalBytes = int64(sm.Value.Uint64())
		case mMemLimit:
			// math.MaxInt64 is the runtime's "no limit" sentinel; expose
			// 0 so dashboards do not plot a 9.2e18 ceiling.
			if v := int64(sm.Value.Uint64()); v < int64(1)<<62 {
				s.MemLimitBytes = v
			}
		case mGCCycles:
			s.GCCycles = sm.Value.Uint64()
		case mGCPauses:
			s.GCPause = foldHistogram(sm.Value.Float64Histogram())
		case mSchedLat:
			s.SchedLatency = foldHistogram(sm.Value.Float64Histogram())
		}
	}
	return s
}

// foldHistogram maps a runtime/metrics histogram (variable bucket
// edges, possibly ±Inf at the ends) onto the fixed exposition ladder.
// A runtime bucket lands in the first ladder bound at or above its
// upper edge; buckets past the last bound count only toward the total
// (the +Inf bucket). Runtime histograms are cumulative over the
// process lifetime, so the folded counts render directly as a
// Prometheus histogram. Sum is a midpoint estimate, good enough for
// mean lines on a dashboard, never for billing.
func foldHistogram(h *metrics.Float64Histogram) Histogram {
	out := Histogram{Bounds: runtimeBounds, Counts: make([]uint64, len(runtimeBounds))}
	if h == nil {
		return out
	}
	per := make([]uint64, len(runtimeBounds))
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		out.Count += n
		// Midpoint estimate for the sum; clamp infinite edges to the
		// finite neighbor so one outlier bucket cannot poison the mean.
		mLo, mHi := lo, hi
		if mLo < 0 || mLo != mLo { // -Inf or NaN
			mLo = 0
		}
		if mHi > runtimeBounds[len(runtimeBounds)-1]*10 || mHi != mHi {
			mHi = mLo
		}
		out.Sum += float64(n) * (mLo + mHi) / 2
		for b, ub := range runtimeBounds {
			if hi <= ub {
				per[b] += n
				break
			}
		}
	}
	var cum uint64
	for i, n := range per {
		cum += n
		out.Counts[i] = cum
	}
	return out
}

// countOpenFDs counts this process's open file descriptors via
// /proc/self/fd. Returns -1 where that interface does not exist.
func countOpenFDs() int64 {
	if runtime.GOOS != "linux" {
		return -1
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return int64(len(ents))
}
