package obs

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"testing"
)

func TestRuntimeCollectorSnapshot(t *testing.T) {
	runtime.GC() // /gc/heap/live reads 0 until a cycle has completed
	s := ReadRuntime()
	if s.SampledUnix <= 0 {
		t.Fatalf("SampledUnix = %d", s.SampledUnix)
	}
	if s.Goroutines <= 0 {
		t.Fatalf("Goroutines = %d", s.Goroutines)
	}
	if s.HeapLiveBytes <= 0 || s.HeapGoalBytes <= 0 {
		t.Fatalf("heap gauges: live=%d goal=%d", s.HeapLiveBytes, s.HeapGoalBytes)
	}
	if s.MemLimitBytes < 0 {
		t.Fatalf("MemLimitBytes = %d; the no-limit sentinel must render as 0", s.MemLimitBytes)
	}
	if runtime.GOOS == "linux" && s.OpenFDs <= 0 {
		t.Fatalf("OpenFDs = %d on linux", s.OpenFDs)
	}
	for _, h := range []Histogram{s.GCPause, s.SchedLatency} {
		if len(h.Bounds) != len(runtimeBounds) || len(h.Counts) != len(runtimeBounds) {
			t.Fatalf("histogram not on the fixed ladder: %d bounds, %d counts", len(h.Bounds), len(h.Counts))
		}
		var prev uint64
		for i, n := range h.Counts {
			if n < prev {
				t.Fatalf("cumulative counts decrease at bound %d: %d -> %d", i, prev, n)
			}
			prev = n
		}
		if prev > h.Count {
			t.Fatalf("last cumulative bucket %d exceeds total %d", prev, h.Count)
		}
	}
}

// TestRuntimeCollectorStartStop: runtime health needs no collector to
// start or stop — every ReadRuntime is a fresh sample, so a GC cycle
// and a new memory limit show up in the very next read.
func TestRuntimeCollectorStartStop(t *testing.T) {
	before := ReadRuntime()
	runtime.GC()
	limit := max(before.HeapGoalBytes, 64<<20) * 4
	old := debug.SetMemoryLimit(limit)
	defer debug.SetMemoryLimit(old)
	after := ReadRuntime()
	if after.GCCycles <= before.GCCycles {
		t.Fatalf("GCCycles %d -> %d across runtime.GC()", before.GCCycles, after.GCCycles)
	}
	if after.MemLimitBytes != limit {
		t.Fatalf("MemLimitBytes = %d right after SetMemoryLimit(%d)", after.MemLimitBytes, limit)
	}
}

// TestRuntimeCollectorNilAndNeverStarted: ReadRuntime has no lifecycle
// to get wrong — it needs no constructor and is safe from several
// goroutines at once (each read fills its own sample slice).
func TestRuntimeCollectorNilAndNeverStarted(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if s := ReadRuntime(); s.Goroutines <= 0 || s.GCPause.Count < s.GCPause.Counts[len(s.GCPause.Counts)-1] {
					t.Errorf("concurrent read: %+v", s)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestFoldHistogram(t *testing.T) {
	// Runtime-shaped histogram: -Inf and +Inf edge buckets, interior
	// buckets straddling ladder bounds, and one count far past the
	// ladder's top.
	h := &metrics.Float64Histogram{
		Counts:  []uint64{1, 4, 2, 3},
		Buckets: []float64{math.Inf(-1), 1e-6, 64e-6, 1e-3, math.Inf(1)},
	}
	out := foldHistogram(h)
	if out.Count != 10 {
		t.Fatalf("Count = %d, want 10", out.Count)
	}
	// Bucket (-Inf,1e-6] lands at ladder bound 1e-6; (1e-6,64e-6] at
	// 1e-4; (64e-6,1e-3] at 1e-3; (1e-3,+Inf) only in Count.
	byBound := map[float64]uint64{}
	var prev uint64
	for i, b := range out.Bounds {
		byBound[b] = out.Counts[i] - prev
		prev = out.Counts[i]
	}
	if byBound[1e-6] != 1 || byBound[1e-4] != 4 || byBound[1e-3] != 2 {
		t.Fatalf("fold placement: %v", out.Counts)
	}
	if last := out.Counts[len(out.Counts)-1]; last != 7 {
		t.Fatalf("cumulative top = %d, want 7 (the +Inf-edge bucket rides only in Count)", last)
	}
	if out.Sum <= 0 || math.IsInf(out.Sum, 0) || math.IsNaN(out.Sum) {
		t.Fatalf("Sum = %v", out.Sum)
	}
	empty := foldHistogram(nil)
	if empty.Count != 0 || len(empty.Counts) != len(runtimeBounds) {
		t.Fatalf("nil histogram fold: %+v", empty)
	}
}
