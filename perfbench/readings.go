package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank method. Failed ops are recorded as +Inf, so they sort
// above every completed op and count as misses.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.Inf(1)
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), leaving xs unsorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// parseCounters reads Prometheus text exposition into a map from series
// (the metric name with its labels, as rendered) to value. Comment
// lines and lines without a numeric value are skipped.
func parseCounters(text []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

// parseProcStat reads the aggregate cpu line of /proc/stat: user nice
// system idle iowait irq softirq steal [guest guest_nice]. Guest time is
// already included in user and nice, so the total sums the first eight
// fields only.
func parseProcStat(text []byte) (cpuTimes, error) {
	for line := range bytes.Lines(text) {
		f := strings.Fields(string(line))
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTimes{}, fmt.Errorf("/proc/stat: cpu line has %d fields, want at least 9", len(f))
		}
		var t cpuTimes
		for i, s := range f[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("/proc/stat: cpu field %d: %w", i+1, err)
			}
			t.total += v
			if i == 7 {
				t.steal = v
			}
		}
		return t, nil
	}
	return cpuTimes{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// stealShare is the share of all CPU time between two readings that the
// hypervisor gave to other guests.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// readCPUTimes reads /proc/stat; where it is missing the share reads 0.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	t, err := parseProcStat(b)
	if err != nil {
		return cpuTimes{}
	}
	return t
}

// rssSample is the resident set at an offset into a timed phase.
type rssSample struct {
	at  time.Duration
	mib float64
}

// rssEvery is the resident-set sampling period: short enough that a GC
// spike lasting a fraction of a second is seen.
const rssEvery = 20 * time.Millisecond

// sampleRSS records the resident set from /proc/self/statm every
// rssEvery until stop is closed, then returns the samples.
func sampleRSS(t0 time.Time, stop <-chan struct{}) ([]rssSample, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	page := float64(os.Getpagesize())
	buf := make([]byte, 128)
	var out []rssSample
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		n, err := f.ReadAt(buf, 0)
		if err != nil && err != io.EOF {
			return nil, err
		}
		fields := strings.Fields(string(buf[:n]))
		if len(fields) < 2 {
			return nil, fmt.Errorf("/proc/self/statm: unexpected %q", buf[:n])
		}
		pages, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("/proc/self/statm: %w", err)
		}
		out = append(out, rssSample{time.Since(t0), pages * page / (1 << 20)})
		select {
		case <-stop:
			return out, nil
		case <-tick.C:
		}
	}
}

// rssWindows is about how many windows a run's resident-set samples are
// cut into, over all its rounds.
const rssWindows = 10

// windowPeaks cuts the resident-set samples of a phase of length d into
// n equal windows and returns the highest sample of each window that has
// one. The median over a run's windows is its steady peak: a single
// GC-pacing spike raises one window's peak and not the median.
func windowPeaks(samples []rssSample, d time.Duration, n int) []float64 {
	peaks := make([]float64, n)
	seen := make([]bool, n)
	for _, s := range samples {
		w := min(int(s.at*time.Duration(n)/d), n-1)
		if !seen[w] || s.mib > peaks[w] {
			peaks[w], seen[w] = s.mib, true
		}
	}
	var out []float64
	for w, ok := range seen {
		if ok {
			out = append(out, peaks[w])
		}
	}
	return out
}

// snapshot is one reading of the process and server counters, taken
// before and after a timed phase.
type snapshot struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU, totalCPU, idleCPU           float64 // runtime/metrics estimates, cpu-seconds
	heapLive                           float64 // bytes live after the last GC
	rusageCPU                          float64 // user+system seconds
	counters                           map[string]float64
}

// accumulate adds the change from a to b to s, and takes b's live heap,
// a level rather than a total.
func (s *snapshot) accumulate(a, b snapshot) {
	s.allocBytes += b.allocBytes - a.allocBytes
	s.allocObjects += b.allocObjects - a.allocObjects
	s.gcCycles += b.gcCycles - a.gcCycles
	s.gcCPU += b.gcCPU - a.gcCPU
	s.totalCPU += b.totalCPU - a.totalCPU
	s.idleCPU += b.idleCPU - a.idleCPU
	s.rusageCPU += b.rusageCPU - a.rusageCPU
	s.heapLive = b.heapLive
	if s.counters == nil {
		s.counters = make(map[string]float64)
	}
	for k, v := range b.counters {
		s.counters[k] += v - a.counters[k]
	}
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/live:bytes",
}

// readRuntime fills the runtime and rusage fields of a snapshot.
func readRuntime(s *snapshot) error {
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		ms[i].Name = n
	}
	metrics.Read(ms)
	vals := make([]float64, len(ms))
	for i, m := range ms {
		switch m.Value.Kind() {
		case metrics.KindUint64:
			vals[i] = float64(m.Value.Uint64())
		case metrics.KindFloat64:
			vals[i] = m.Value.Float64()
		default:
			return fmt.Errorf("runtime/metrics: %s unsupported by this Go version", m.Name)
		}
	}
	s.allocBytes, s.allocObjects, s.gcCycles = vals[0], vals[1], vals[2]
	s.gcCPU, s.totalCPU, s.idleCPU, s.heapLive = vals[3], vals[4], vals[5], vals[6]
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	s.rusageCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return nil
}

// Series of the server's /metrics the per-layer readings difference.
const (
	docHits      = "wmxmld_doc_cache_hits_total"
	docMisses    = "wmxmld_doc_cache_misses_total"
	docEvictions = "wmxmld_doc_cache_evictions_total"
	planHits     = "wmxmld_plan_cache_hits_total"
	planMisses   = "wmxmld_plan_cache_misses_total"
	streamChunks = "wmxmld_stream_chunks_total"
	docEntries   = "wmxmld_doc_cache_entries"
)

// ratio is hits/(hits+misses), 0 when the cache was not consulted.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// perOp divides a phase total by the ops the phase completed.
func perOp(total float64, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}

// phaseReadings turns the snapshots around one timed phase of ops
// operations into the per-layer readings: runtime costs and server
// counter deltas, normalised per op where the name says so.
func phaseReadings(a, b snapshot, ops int) map[string]float64 {
	d := func(series string) float64 { return b.counters[series] - a.counters[series] }
	// The runtime's total is GOMAXPROCS times wall time; idle time is
	// taken out so that time spent waiting (on fsync, say) leaves the
	// share alone.
	gcShare := 0.0
	if cpu := (b.totalCPU - a.totalCPU) - (b.idleCPU - a.idleCPU); cpu > 0 {
		gcShare = (b.gcCPU - a.gcCPU) / cpu
	}
	return map[string]float64{
		"runtime.alloc_kb_per_op":           perOp(b.allocBytes-a.allocBytes, ops) / 1024,
		"runtime.allocs_per_op":             perOp(b.allocObjects-a.allocObjects, ops),
		"runtime.gc_cycles_per_kop":         perOp(b.gcCycles-a.gcCycles, ops) * 1000,
		"runtime.gc_cpu_share":              gcShare,
		"runtime.cpu_ms_per_op":             perOp(b.rusageCPU-a.rusageCPU, ops) * 1000,
		"runtime.heap_live_mb":              b.heapLive / (1 << 20),
		"server.doc_cache_evictions_per_op": perOp(d(docEvictions), ops),
		"server.doc_cache_hit_ratio":        ratio(d(docHits), d(docMisses)),
		"server.plan_cache_hit_ratio":       ratio(d(planHits), d(planMisses)),
		"stream.chunks_per_op":              perOp(d(streamChunks), ops),
	}
}
