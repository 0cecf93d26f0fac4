package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestPercentileCountsFailedOpsAsMisses(t *testing.T) {
	inf := math.Inf(1)
	// Eight ops completed in 1..8 ms; two failed and sort last.
	lat := []float64{1, 2, 3, 4, 5, 6, 7, 8, inf, inf}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.5, 5},
		{0.8, 8},
		{0.9, inf}, // the tail reaches the failures
		{1, inf},
	} {
		if got := percentile(lat, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{inf, inf, inf}, 0.5); !math.IsInf(got, 1) {
		t.Errorf("p50 with every op failed = %v, want +Inf", got)
	}
	if got := percentile(nil, 0.5); !math.IsInf(got, 1) {
		t.Errorf("p50 of no ops = %v, want +Inf", got)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

const metricsBefore = `# HELP wmxmld_doc_cache_hits_total Suspect-document cache hits.
# TYPE wmxmld_doc_cache_hits_total counter
wmxmld_doc_cache_hits_total 10
wmxmld_doc_cache_misses_total 5
wmxmld_doc_cache_evictions_total 2
wmxmld_plan_cache_hits_total 0
wmxmld_plan_cache_misses_total 7
wmxmld_stream_chunks_total 40
wmxmld_requests_total{route="/v1/detect",code="200"} 15
wmxmld_stage_seconds_bucket{stage="decode",le="+Inf"} 15
`

const metricsAfter = `wmxmld_doc_cache_hits_total 10
wmxmld_doc_cache_misses_total 105
wmxmld_doc_cache_evictions_total 102
wmxmld_plan_cache_hits_total 0
wmxmld_plan_cache_misses_total 107
wmxmld_stream_chunks_total 40
wmxmld_requests_total{route="/v1/detect",code="200"} 115
not a sample line
`

func TestParseCounters(t *testing.T) {
	m := parseCounters([]byte(metricsBefore))
	for series, want := range map[string]float64{
		docHits: 10,
		`wmxmld_requests_total{route="/v1/detect",code="200"}`:  15,
		`wmxmld_stage_seconds_bucket{stage="decode",le="+Inf"}`: 15,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present %t), want %v", series, got, ok, want)
		}
	}
	if len(m) != 8 {
		t.Errorf("parsed %d series, want 8 (comments skipped)", len(m))
	}
}

func TestCounterDeltas(t *testing.T) {
	a := snapshot{counters: parseCounters([]byte(metricsBefore))}
	b := snapshot{counters: parseCounters([]byte(metricsAfter))}
	got := phaseReadings(a, b, 100)
	for name, want := range map[string]float64{
		"server.doc_cache_hit_ratio":        0, // 0 hits over 100 misses
		"server.doc_cache_evictions_per_op": 1,
		"server.plan_cache_hit_ratio":       0,
		"stream.chunks_per_op":              0,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	// A cache the phase never consulted reads 0, not NaN.
	if r := phaseReadings(a, a, 100)["server.doc_cache_hit_ratio"]; r != 0 {
		t.Errorf("hit ratio with no lookups = %v, want 0", r)
	}
}

func TestPhaseReadingsPerOp(t *testing.T) {
	a := snapshot{allocBytes: 1 << 20, allocObjects: 500, gcCycles: 3, gcCPU: 1, totalCPU: 10, idleCPU: 4, rusageCPU: 2, heapLive: 64 << 20}
	b := snapshot{allocBytes: 1<<20 + 400*2048, allocObjects: 500 + 400*25, gcCycles: 7, gcCPU: 2.5, totalCPU: 16, idleCPU: 7, rusageCPU: 3, heapLive: 32 << 20}
	got := phaseReadings(a, b, 400)
	for name, want := range map[string]float64{
		"runtime.alloc_kb_per_op":   2,
		"runtime.allocs_per_op":     25,
		"runtime.gc_cycles_per_kop": 10,
		"runtime.gc_cpu_share":      0.5, // 1.5 of the 3 cpu-seconds not idle
		"runtime.cpu_ms_per_op":     2.5,
		"runtime.heap_live_mb":      32, // the reading after the phase
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if z := phaseReadings(a, b, 0)["runtime.allocs_per_op"]; z != 0 {
		t.Errorf("per-op reading of a phase without ops = %v, want 0", z)
	}
	// Time spent waiting, on fsync say, is idle time: it leaves the GC
	// share alone.
	waited := b
	waited.totalCPU += 5
	waited.idleCPU += 5
	if g := phaseReadings(a, waited, 400)["runtime.gc_cpu_share"]; math.Abs(g-0.5) > 1e-9 {
		t.Errorf("GC share with more idle time = %v, want 0.5", g)
	}
}

func TestMergeAddsRounds(t *testing.T) {
	r1 := &phase{
		elapsed: time.Second, attempted: 10, failed: 1, decodes: 10,
		lat:    []float64{1, 3, math.Inf(1)},
		before: snapshot{allocBytes: 100, gcCycles: 1, heapLive: 8, counters: map[string]float64{docMisses: 5}},
		after:  snapshot{allocBytes: 300, gcCycles: 2, heapLive: 9, counters: map[string]float64{docMisses: 15}},
		rss:    []rssSample{{0, 40}, {600 * time.Millisecond, 42}},
	}
	// The second round runs on a fresh server whose counters start over.
	r2 := &phase{
		elapsed: 2 * time.Second, attempted: 20, decodes: 20,
		lat:    []float64{2},
		before: snapshot{allocBytes: 1000, gcCycles: 5, heapLive: 4, counters: map[string]float64{docMisses: 0}},
		after:  snapshot{allocBytes: 1400, gcCycles: 8, heapLive: 6, counters: map[string]float64{docMisses: 20}},
		rss:    []rssSample{{0, 50}},
	}
	p := &phase{}
	p.merge(r1, 2)
	p.merge(r2, 2)
	if p.elapsed != 3*time.Second || p.attempted != 30 || p.failed != 1 || p.decodes != 30 {
		t.Errorf("merged elapsed %v attempted %d failed %d decodes %d", p.elapsed, p.attempted, p.failed, p.decodes)
	}
	if !slices.Equal(p.lat, []float64{1, 2, 3, math.Inf(1)}) {
		t.Errorf("merged latencies %v, want sorted", p.lat)
	}
	if !slices.Equal(p.rssPeaks, []float64{40, 42, 50}) {
		t.Errorf("merged window peaks %v", p.rssPeaks)
	}
	got := phaseReadings(p.before, p.after, p.attempted)
	for name, want := range map[string]float64{
		"runtime.alloc_kb_per_op":   600.0 / 30 / 1024,
		"runtime.gc_cycles_per_kop": 4.0 / 30 * 1000,
		"runtime.heap_live_mb":      6.0 / (1 << 20), // the last round's reading
	} {
		if math.Abs(got[name]-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if m := p.after.counters[docMisses] - p.before.counters[docMisses]; m != 30 {
		t.Errorf("merged doc-cache misses = %v, want 30", m)
	}
}

const procStat = `cpu  4705 356 584 3699176 23 23 0 1200 50 10
cpu0 2300 178 292 1849588 11 11 0 600 25 5
cpu1 2405 178 292 1849588 12 12 0 600 25 5
intr 1462898
ctxt 1990473
`

func TestParseProcStat(t *testing.T) {
	got, err := parseProcStat([]byte(procStat))
	if err != nil {
		t.Fatal(err)
	}
	// Guest time (the last two fields) is already inside user and nice.
	want := cpuTimes{total: 4705 + 356 + 584 + 3699176 + 23 + 23 + 0 + 1200, steal: 1200}
	if got != want {
		t.Errorf("parseProcStat = %+v, want %+v", got, want)
	}
	if _, err := parseProcStat([]byte("cpu 1 2 3\n")); err == nil {
		t.Error("short cpu line: want an error")
	}
	if _, err := parseProcStat([]byte("intr 5\n")); err == nil {
		t.Error("no cpu line: want an error")
	}
}

func TestStealShare(t *testing.T) {
	a := cpuTimes{total: 1000, steal: 10}
	b := cpuTimes{total: 1400, steal: 110}
	if got := stealShare(a, b); got != 0.25 {
		t.Errorf("stealShare = %v, want 0.25", got)
	}
	if got := stealShare(b, b); got != 0 {
		t.Errorf("stealShare over no time = %v, want 0", got)
	}
}

func TestWindowPeaksIgnoreOneSpike(t *testing.T) {
	const d = 10 * time.Second
	var samples []rssSample
	for at := time.Duration(0); at < d; at += 100 * time.Millisecond {
		mib := 50 + at.Seconds() // creeps up one MiB a second
		if at == 3*time.Second {
			mib = 400 // one GC-pacing spike
		}
		samples = append(samples, rssSample{at, mib})
	}
	// Per-second peaks 50.9, 51.9, ..., 59.9 with 400 in the fourth
	// window: the median of the ten is the mean of 55.9 and 56.9.
	peaks := windowPeaks(samples, d, 10)
	if len(peaks) != 10 || peaks[3] != 400 {
		t.Fatalf("windowPeaks = %v", peaks)
	}
	if got, want := median(peaks), 56.4; math.Abs(got-want) > 1e-9 {
		t.Errorf("median window peak = %v, want %v", got, want)
	}
	// A sample past the nominal end (the last op finishing late) lands in
	// the last window.
	late := append(samples, rssSample{d + time.Second, 70})
	if got, want := median(windowPeaks(late, d, 10)), 56.4; math.Abs(got-want) > 1e-9 {
		t.Errorf("median window peak with a late sample = %v, want %v", got, want)
	}
	// Windows without a sample are left out.
	if got := windowPeaks([]rssSample{{0, 1}}, d, 4); !slices.Equal(got, []float64{1}) {
		t.Errorf("windowPeaks of one sample = %v", got)
	}
}
