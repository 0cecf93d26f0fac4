// Command perfbench is the wmxmld service benchmark. It drives the real
// service handler (the one wmxml.NewServerHandler builds) in-process,
// with no sockets and no second process competing for the CPUs, from a
// closed loop of one client per CPU, each waiting for its reply. The
// server runs over a durable File registry (the daemon's --registry
// backend: a JSONL log, fsync per append) with the daemon's defaults for
// everything else.
//
// A run is a few rounds, each setting up a fresh server and measuring it
// for its share of the time. An untraced run (--trace 0) reports the
// end-to-end metrics. A traced run (--trace 1) spends the first half of
// its time in the untraced rounds, for the runtime and /metrics
// readings, and the second half in a traced phase on the last server
// that times each op's ServeHTTP calls and registry calls and replays
// the op's other layer calls, and reports the per-layer metrics. The
// last line of standard output is the result as one JSON object; the run
// exits non-zero when any op's output is wrong.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload detect-warm --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// layerSpans are the layers whose per-op self time a traced run reports
// as <layer>_us.
var layerSpans = []string{
	"server.body_read", "server.body_sha256", "server.response_encode",
	"registry.get_owner", "registry.add_receipt", "registry.get_receipt", "registry.list_receipts",
	"xmltree.parse", "xmltree.serialize", "index.build",
	"core.plan_compile", "core.embed", "core.decode", "core.vote",
	"stream.embed", "stream.detect",
}

// perLayer are the metrics a traced run reports.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"runtime.alloc_kb_per_op", "KiB"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.gc_cycles_per_kop", "count"},
		{"runtime.gc_cpu_share", "ratio"},
		{"runtime.cpu_ms_per_op", "ms"},
		{"runtime.heap_live_mb", "MiB"},
		{"server.doc_cache_evictions_per_op", "count"},
		{"server.doc_cache_hit_ratio", "ratio"},
		{"server.plan_cache_hit_ratio", "ratio"},
		{"server.unattributed_us", "us"},
		{"core.decodes_per_op", "count"},
		{"stream.chunks_per_op", "count"},
		{"registry.open_ms", "ms"},
		{"trace.overhead_us", "us"},
	}
	for _, l := range layerSpans {
		defs = append(defs, metricDef{l + "_us", "us"})
	}
	return defs
}()

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds to measure for")
	fs.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics; 1 adds a traced phase and reports per-layer metrics")
	fs.StringVar(&o.dir, "dir", "perfbench", "directory for the run's registries and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, o.workload) || o.seconds < 1 || (trace != 0 && trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds >= 1, --trace 0 or 1, and no positional arguments\n", strings.Join(workloadNames, "|"))
		return 2
	}
	o.trace = trace == 1
	res, err := measure(o, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one benchmark: inputs from the seed, the rounds of set-up
// and untraced measurement and, on traced runs, the traced phase.
func measure(o options, stdout io.Writer) (*result, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	cpu0 := readCPUTimes()
	root, err := filepath.Abs(filepath.Dir(filepath.Clean(o.dir)))
	if err != nil {
		return nil, err
	}
	env := newEnv(o, root)
	runDir := filepath.Join(o.dir, ".run", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(runDir)

	// A traced run splits its time between the untraced and the traced
	// phase, so every run measures for --seconds.
	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		d /= 2
	}
	clients := make([]*client, runtime.NumCPU())
	for i := range clients {
		clients[i] = newClient(i, o.seed, 1<<17)
	}
	b, plain, setups, opens, err := runRounds(w, clients, runDir, d, o.trace)
	if b != nil {
		defer b.close()
	}
	if err != nil {
		return nil, err
	}
	env.RegistryFS = fsType(runDir)
	fmt.Fprintf(stdout, "set-up seconds, one per round:")
	for _, s := range setups {
		fmt.Fprintf(stdout, " %.4f", s)
	}
	fmt.Fprintln(stdout)

	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: make(map[string]metricValue)}
	defs := endToEnd
	var vals map[string]float64
	var spansPath string
	if !o.trace {
		vals = map[string]float64{
			"setup_s":          median(setups),
			"p50_ms":           percentile(plain.lat, 0.5),
			"p90_ms":           percentile(plain.lat, 0.9),
			"throughput_ops_s": float64(plain.attempted-plain.failed) / plain.elapsed.Seconds(),
			"peak_rss_mb":      median(plain.rssPeaks),
		}
	} else {
		defs = perLayer
		traced, tr, err := tracedPhase(b, w, plain, d)
		if err != nil {
			return nil, err
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		if plain.firstErr == nil {
			plain.firstErr = traced.firstErr
		}
		vals = layerValues(plain, traced, tr)
		vals["registry.open_ms"] = median(opens)
		spansPath = filepath.Join(o.dir, "out", fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeSpans(spansPath); err != nil {
			return nil, err
		}
	}
	env.StealShare = stealShare(cpu0, readCPUTimes())
	res.Correct = res.Failed == 0
	for _, m := range defs {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// More ops failed than the percentile leaves room for: report
			// the largest finite value, a miss by any limit.
			v = math.MaxFloat64
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}

	envLine, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "env %s\n", envLine)
	fmt.Fprintf(stdout, "ops attempted=%d succeeded=%d failed=%d\n", res.Attempted, res.Attempted-res.Failed, res.Failed)
	if plain.firstErr != nil {
		fmt.Fprintf(stdout, "first failure: %v\n", plain.firstErr)
	}
	for _, m := range defs {
		fmt.Fprintf(stdout, "%-36s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	if spansPath != "" {
		fmt.Fprintf(stdout, "spans written to %s\n", spansPath)
	}
	return res, nil
}

// runRounds runs the workload's rounds. Each round sets up a fresh
// server, timing registry open through warm-up after a runtime.GC(), and
// then measures it untraced for d/rounds; the set-ups are spread over
// the run like the timed ops, so a slow spell of the host weighs on both
// alike. Each server but the last is closed before the next set-up, so
// one server's state is live at a time. runRounds returns the last
// server, still open (also on error, when one was built), the rounds'
// phases merged, and each set-up's duration (s) and registry open time
// (ms).
func runRounds(w workload, clients []*client, runDir string, d time.Duration, traced bool) (b *bench, plain *phase, setups, opens []float64, err error) {
	n := w.rounds()
	plain = &phase{}
	for k := range n {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, nil, nil, nil, err
			}
			b = nil
		}
		dir := filepath.Join(runDir, fmt.Sprintf("round%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, nil, nil, err
		}
		runtime.GC()
		start := time.Now()
		var open time.Duration
		b, open, err = newBench(dir, clients, traced)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if err := w.setup(b); err != nil {
			return b, nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		opens = append(opens, float64(open.Nanoseconds())/1e6)

		runtime.GC()
		p, err := b.run(w, d/time.Duration(n), nil)
		if err != nil {
			return b, nil, nil, nil, err
		}
		plain.merge(p, max(1, rssWindows/n))
	}
	return b, plain, setups, opens, nil
}

// layerValues derives the per-layer metrics other than registry.open_ms:
// readings and counts from the untraced rounds, self times from the
// traced phase's spans, and the tracing overhead between the two.
func layerValues(plain, traced *phase, tr *tracer) map[string]float64 {
	vals := phaseReadings(plain.before, plain.after, plain.attempted)
	vals["core.decodes_per_op"] = perOp(float64(plain.decodes), plain.attempted)
	vals["trace.overhead_us"] = (percentile(traced.lat, 0.5) - percentile(plain.lat, 0.5)) * 1e3
	layers, wall := make(map[int64]map[string]int64), make(map[int64]int64)
	for _, t := range tr.clients {
		opLayers(t.spans, layers, wall)
	}
	for k, v := range layerMedians(layers, wall, layerSpans) {
		vals[k] = v
	}
	return vals
}

// tracedPhase repeats the timed phase with every op traced and replayed.
// The replay compiles as many plans per detect as the untraced rounds'
// plan-cache misses per op say the handler compiled.
func tracedPhase(b *bench, w workload, plain *phase, d time.Duration) (*phase, *tracer, error) {
	if b.timed == nil {
		return nil, nil, errors.New("traced phase needs the timed registry")
	}
	misses := plain.after.counters[planMisses] - plain.before.counters[planMisses]
	b.compiles = int(math.Round(perOp(misses, plain.attempted)))
	if err := w.prepareReplay(b); err != nil {
		return nil, nil, fmt.Errorf("prepare replay: %w", err)
	}
	tr := newTracer(len(b.clients), time.Now(), 1<<18)
	runtime.GC()
	p, err := b.run(w, d, tr)
	if err != nil {
		return nil, nil, err
	}
	if n := tr.orphans.Load(); n > 0 {
		return nil, nil, fmt.Errorf("traced phase: %d registry calls came from goroutines no client owns", n)
	}
	return p, tr, nil
}
