package server

// The anomaly watchdog: the "what was the process doing when it
// wasn't healthy?" half of the self-observing runtime. On a ticker it
// evaluates threshold rules over the owner blocks' SLO windows and the
// runtime health it reads at check time, and when one fires it writes a
// capture bundle — pprof heap/goroutine/CPU profiles, the slowest-trace
// ring, a /metrics snapshot and the firing rule itself — into a bounded
// on-disk ring. The bundle is the evidence an operator (or a
// postmortem) needs, taken at the moment of the anomaly instead of
// twenty minutes later when someone gets paged and the heap has already
// been OOM-killed flat.
//
// Rules:
//
//   - slo-detect-p99 / slo-error-ratio: an objective is burning at
//     ≥ threshold× budget in BOTH the fast (5m) and slow (1h) windows
//     with a minimum event count — the multi-window gate that keeps a
//     single slow request from triggering a bundle.
//   - heap-near-limit: live heap at ≥ 90% of GOMEMLIMIT (rule is
//     inert when no limit is set).
//   - goroutine-spike: goroutine count over an absolute ceiling.
//
// Each (rule, owner) pair has a cooldown so a sustained breach yields
// one bundle per cooldown period, not hundreds; the disk ring keeps
// the newest maxBundles directories and evicts the oldest. Every
// capture increments wmxmld_captures_total and logs one structured
// line.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"wmxml/internal/obs"
)

// capturePrefix names bundle directories: cap-<UTC stamp>-<rule>, then
// -<path-escaped owner> for owner-scoped rules, so one check that fires
// a rule for several owners writes one bundle each, and a lexical sort
// of the ring directory is a chronological sort.
const capturePrefix = "cap-"

// watchdogConfig is the resolved rule and ring configuration.
type watchdogConfig struct {
	dir           string        // bundle ring directory ("" = watchdog off)
	maxBundles    int           // ring size (oldest evicted past this)
	cooldown      time.Duration // per-(rule,owner) refire gate
	cpuProfile    time.Duration // CPU profile length per bundle (0 = skip)
	interval      time.Duration // rule evaluation period
	burnThreshold float64       // fast+slow burn rate that arms the SLO rules
	minEvents     uint64        // fast-window event floor for the SLO rules
	heapFraction  float64       // of GOMEMLIMIT that arms heap-near-limit
	goroutineMax  int64         // absolute goroutine ceiling
}

// firedRule is the rule record written into a bundle's rule.json.
type firedRule struct {
	Rule     string         `json:"rule"`
	Owner    string         `json:"owner,omitempty"`
	FiredAt  string         `json:"fired_at"`
	Detail   map[string]any `json:"detail,omitempty"`
	Cooldown string         `json:"cooldown"`
}

// watchdog owns the ticker, the cooldown table and the bundle ring. It
// reads the server's metrics, trace ring and logger.
type watchdog struct {
	cfg watchdogConfig
	s   *Server

	mu       sync.Mutex
	lastFire map[string]time.Time

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// newWatchdog resolves cfg's defaults and starts the evaluation loop;
// Stop ends it.
func newWatchdog(cfg watchdogConfig, s *Server) *watchdog {
	if cfg.maxBundles <= 0 {
		cfg.maxBundles = 8
	}
	if cfg.cooldown <= 0 {
		cfg.cooldown = 5 * time.Minute
	}
	if cfg.interval <= 0 {
		cfg.interval = 10 * time.Second
	}
	if cfg.burnThreshold <= 0 {
		cfg.burnThreshold = 10
	}
	if cfg.minEvents == 0 {
		cfg.minEvents = 10
	}
	if cfg.heapFraction <= 0 || cfg.heapFraction > 1 {
		cfg.heapFraction = 0.9
	}
	if cfg.goroutineMax <= 0 {
		cfg.goroutineMax = 10000
	}
	d := &watchdog{
		cfg:      cfg,
		s:        s,
		lastFire: make(map[string]time.Time),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		t := time.NewTicker(cfg.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				d.check(time.Now())
			case <-d.stop:
				return
			}
		}
	}()
	return d
}

// Stop halts the loop and waits for it to exit. Safe on nil and from
// several goroutines at once.
func (d *watchdog) Stop() {
	if d == nil {
		return
	}
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.done
}

// check evaluates every rule once. Exposed to tests via direct call.
func (d *watchdog) check(now time.Time) {
	for _, e := range d.s.met.evaluateSLO(now.Unix()) {
		if e.Fast.Detects >= d.cfg.minEvents &&
			e.Fast.DetectBurn >= d.cfg.burnThreshold && e.Slow.DetectBurn >= d.cfg.burnThreshold {
			d.fire(now, "slo-detect-p99", e.Owner, map[string]any{
				"fast_burn": e.Fast.DetectBurn, "slow_burn": e.Slow.DetectBurn,
				"fast_detects": e.Fast.Detects, "fast_slow_detects": e.Fast.DetectSlow,
				"objective_ms": e.DetectP99MS,
			})
		}
		if e.Fast.Events >= d.cfg.minEvents &&
			e.Fast.ErrorBurn >= d.cfg.burnThreshold && e.Slow.ErrorBurn >= d.cfg.burnThreshold {
			d.fire(now, "slo-error-ratio", e.Owner, map[string]any{
				"fast_burn": e.Fast.ErrorBurn, "slow_burn": e.Slow.ErrorBurn,
				"fast_events": e.Fast.Events, "fast_errors": e.Fast.Errors,
				"objective_ratio": e.ErrorRatio,
			})
		}
	}
	rt := obs.ReadRuntime()
	if rt.MemLimitBytes > 0 &&
		float64(rt.HeapLiveBytes) >= d.cfg.heapFraction*float64(rt.MemLimitBytes) {
		d.fire(now, "heap-near-limit", "", map[string]any{
			"heap_live_bytes": rt.HeapLiveBytes, "gomemlimit_bytes": rt.MemLimitBytes,
			"fraction": d.cfg.heapFraction,
		})
	}
	if rt.Goroutines >= d.cfg.goroutineMax {
		d.fire(now, "goroutine-spike", "", map[string]any{
			"goroutines": rt.Goroutines, "ceiling": d.cfg.goroutineMax,
		})
	}
}

// fire writes a bundle for one rule hit unless its cooldown is live.
func (d *watchdog) fire(now time.Time, rule, owner string, detail map[string]any) {
	key := rule + "/" + owner
	d.mu.Lock()
	if last, ok := d.lastFire[key]; ok && now.Sub(last) < d.cfg.cooldown {
		d.mu.Unlock()
		return
	}
	d.lastFire[key] = now
	d.mu.Unlock()

	fr := firedRule{
		Rule: rule, Owner: owner,
		FiredAt:  now.UTC().Format(time.RFC3339Nano),
		Detail:   detail,
		Cooldown: d.cfg.cooldown.String(),
	}
	dir, err := d.capture(now, fr)
	if err != nil {
		d.s.log.Error("capture bundle failed", "rule", rule, "owner", owner, "error", err.Error())
		return
	}
	d.s.met.captures.Inc()
	d.s.log.Warn("capture bundle written", "rule", rule, "owner", owner, "dir", dir)
}

// capture writes one bundle directory and evicts the ring's oldest.
// The bundle is assembled under a dotfile name and renamed into place,
// so a reader never sees a half-written bundle.
func (d *watchdog) capture(now time.Time, fr firedRule) (string, error) {
	if err := os.MkdirAll(d.cfg.dir, 0o755); err != nil {
		return "", err
	}
	name := capturePrefix + now.UTC().Format("20060102T150405.000000000") + "-" + fr.Rule
	if fr.Owner != "" {
		name += "-" + url.PathEscape(fr.Owner)
	}
	tmp := filepath.Join(d.cfg.dir, "."+name)
	final := filepath.Join(d.cfg.dir, name)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename

	writeJSON := func(file string, v any) error {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(tmp, file), append(b, '\n'), 0o644)
	}
	if err := writeJSON("rule.json", fr); err != nil {
		return "", err
	}
	if err := writeJSON("slo.json", d.s.met.evaluateSLO(now.Unix())); err != nil {
		return "", err
	}
	if err := writeJSON("traces.json", map[string]any{
		"slowest": emptyIfNil(d.s.ring.Slowest()),
		"recent":  emptyIfNil(d.s.ring.Recent()),
	}); err != nil {
		return "", err
	}
	mf, err := os.Create(filepath.Join(tmp, "metrics.prom"))
	if err != nil {
		return "", err
	}
	d.s.writeMetrics(mf)
	if err := mf.Close(); err != nil {
		return "", err
	}
	for _, p := range []string{"heap", "goroutine"} {
		f, err := os.Create(filepath.Join(tmp, p+".pprof"))
		if err != nil {
			return "", err
		}
		perr := pprof.Lookup(p).WriteTo(f, 0)
		if cerr := f.Close(); perr == nil {
			perr = cerr
		}
		if perr != nil {
			return "", fmt.Errorf("write %s profile: %w", p, perr)
		}
	}
	if d.cfg.cpuProfile > 0 {
		// Best-effort: StartCPUProfile fails if a profile is already
		// running (e.g. an operator hitting the pprof listener); the
		// bundle is still useful without cpu.pprof.
		f, err := os.Create(filepath.Join(tmp, "cpu.pprof"))
		if err == nil {
			if err := pprof.StartCPUProfile(f); err == nil {
				time.Sleep(d.cfg.cpuProfile)
				pprof.StopCPUProfile()
				f.Close()
			} else {
				f.Close()
				os.Remove(f.Name())
			}
		}
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	d.evict()
	return final, nil
}

// evict removes the oldest bundles past the ring size.
func (d *watchdog) evict() {
	names := listBundles(d.cfg.dir)
	for len(names) > d.cfg.maxBundles {
		os.RemoveAll(filepath.Join(d.cfg.dir, names[0]))
		names = names[1:]
	}
}

// listBundles returns the ring's bundle directory names, oldest first
// (the timestamped naming makes lexical order chronological).
func listBundles(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), capturePrefix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

func emptyIfNil(s []*obs.Snapshot) []*obs.Snapshot {
	if s == nil {
		return []*obs.Snapshot{}
	}
	return s
}

// capturesHandler serves GET /debug/captures on the debug listener: the
// bundle ring's index — names, files and sizes — newest first. The
// bundles themselves stay on disk; operators fetch them out of band.
func capturesHandler(dir string) http.Handler {
	type bundleFile struct {
		Name  string `json:"name"`
		Bytes int64  `json:"bytes"`
	}
	type bundle struct {
		Name     string       `json:"name"`
		Modified string       `json:"modified"`
		Files    []bundleFile `json:"files"`
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if dir == "" {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{
				"error":      "capture ring disabled (start wmxmld with --capture-dir)",
				"request_id": obs.NewRequestID(),
			})
			return
		}
		names := listBundles(dir)
		out := struct {
			Dir     string   `json:"dir"`
			Bundles []bundle `json:"bundles"`
		}{Dir: dir, Bundles: []bundle{}}
		for i := len(names) - 1; i >= 0; i-- { // newest first
			b := bundle{Name: names[i], Files: []bundleFile{}}
			full := filepath.Join(dir, names[i])
			if fi, err := os.Stat(full); err == nil {
				b.Modified = fi.ModTime().UTC().Format(time.RFC3339)
			}
			if ents, err := os.ReadDir(full); err == nil {
				for _, e := range ents {
					f := bundleFile{Name: e.Name()}
					if fi, err := e.Info(); err == nil {
						f.Bytes = fi.Size()
					}
					b.Files = append(b.Files, f)
				}
			}
			out.Bundles = append(out.Bundles, b)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
}
