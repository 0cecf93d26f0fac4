package server

// Per-owner SLOs: declared latency/error objectives evaluated over
// rolling multi-window counters. Each owner block of the metrics
// registry (metrics.go) carries its owner's windows, so they share the
// one cardinality cap; the service-wide "_total" windows sit next to
// the owner map.
//
// Two objectives exist per tenant:
//
//   - detect_p99: at least 99% of successful /v1/detect requests must
//     finish inside the objective latency. An individual request is
//     "bad" when it runs over the objective, so the budget is the 1%
//     of requests allowed to be slow.
//   - error_ratio: the fraction of requests allowed to fail with a
//     5xx. The declared ratio IS the budget.
//
// Both are tracked as good/bad event counts in two rolling windows —
// 5 minutes (30 × 10s buckets) and 1 hour (60 × 1m buckets) — the
// classic fast/slow pair: the fast window reacts, the slow window
// confirms, and the watchdog only fires when both burn. A window is a
// fixed ring of buckets indexed by wall-clock epoch; recording is an
// index, an epoch compare and a few integer increments under the
// block's mutex — no allocation on the warm path (pinned by
// TestSLORecordNoAllocs), no per-request time-series append.
//
// burn_rate is badFraction / budgetFraction: 1.0 means the tenant is
// consuming its error budget exactly as fast as the objective allows;
// 10 means ten times too fast. budget_remaining is 1 - burn_rate
// (negative once the window has burned more than a whole budget).
//
// Objectives default from the server flags and can be overridden per
// owner by the registry record's "slo" field; overrides are resolved
// lazily on first sight and invalidated on re-registration.

import (
	"strings"
	"sync"
	"time"

	"wmxml/internal/registry"
)

// Window geometry: fast = 5m of 10s buckets, slow = 1h of 1m buckets.
const (
	sloFastBuckets    = 30
	sloFastBucketSecs = 10
	sloSlowBuckets    = 60
	sloSlowBucketSecs = 60
)

// sloTotalOwner is the owner label of the service-wide aggregate slot
// (every request folds into it regardless of tenant). The leading
// underscore keeps it out of the valid owner-id namespace.
const sloTotalOwner = "_total"

// sloObjectives is one tenant's resolved objectives. A zero/negative
// field disables that objective for the tenant.
type sloObjectives struct {
	// detectP99 is the latency bound 99% of detects must meet.
	detectP99 time.Duration
	// errorRatio is the tolerated 5xx fraction (the error budget).
	errorRatio float64
}

// sloBucket is one time slice of a rolling window. epoch is the
// bucket-granularity wall-clock tick this slot currently represents;
// a slot whose epoch is stale is reset in place on first touch.
type sloBucket struct {
	epoch      int64
	events     uint64 // finished requests
	errors     uint64 // status >= 500
	detects    uint64 // successful detect ops
	detectSlow uint64 // detects over the latency objective
}

// sloWindow is a ring of buckets covering bucketSecs*len(buckets)
// seconds of history.
type sloWindow struct {
	bucketSecs int64
	buckets    []sloBucket
}

func newSLOWindow(n int, bucketSecs int64) sloWindow {
	return sloWindow{bucketSecs: bucketSecs, buckets: make([]sloBucket, n)}
}

// slot returns the bucket for now, resetting it if it still holds a
// previous rotation's counts. Caller holds the owner mutex.
func (w *sloWindow) slot(now int64) *sloBucket {
	epoch := now / w.bucketSecs
	b := &w.buckets[epoch%int64(len(w.buckets))]
	if b.epoch != epoch {
		*b = sloBucket{epoch: epoch}
	}
	return b
}

// sums folds the buckets still inside the window horizon. Caller
// holds the owner mutex.
func (w *sloWindow) sums(now int64) (events, errors, detects, detectSlow uint64) {
	oldest := now/w.bucketSecs - int64(len(w.buckets)) + 1
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.epoch < oldest {
			continue
		}
		events += b.events
		errors += b.errors
		detects += b.detects
		detectSlow += b.detectSlow
	}
	return
}

// sloState is one owner block's (or the aggregate's) SLO state: the
// resolved objectives and the two windows, guarded by mu.
type sloState struct {
	mu       sync.Mutex
	obj      sloObjectives
	resolved bool
	fast     sloWindow
	slow     sloWindow
}

func newSLOState() *sloState {
	return &sloState{
		fast: newSLOWindow(sloFastBuckets, sloFastBucketSecs),
		slow: newSLOWindow(sloSlowBuckets, sloSlowBucketSecs),
	}
}

// objectives resolves (and caches) the objectives of the block labelled
// owner; the overflow block keeps the defaults. Caller holds s.mu.
func (m *metrics) objectives(owner string, s *sloState) sloObjectives {
	if s.resolved {
		return s.obj
	}
	s.obj = m.sloDefaults
	if m.sloResolve != nil && owner != ownerOverflow {
		if o, ok := m.sloResolve(owner); ok {
			s.obj = o
		}
	}
	s.resolved = true
	return s.obj
}

// invalidateSLO drops a tenant's cached objectives — called after
// re-registration so a new "slo" override takes effect on the next
// request without restarting the daemon.
func (m *metrics) invalidateSLO(owner string) {
	m.mu.Lock()
	o := m.owners[owner]
	m.mu.Unlock()
	if o == nil {
		return
	}
	o.slo.mu.Lock()
	o.slo.resolved = false
	o.slo.mu.Unlock()
}

// recordSLO folds one finished request into a block's windows.
func (m *metrics) recordSLO(s *sloState, owner, op string, status int, d time.Duration, now int64) {
	s.mu.Lock()
	obj := m.objectives(owner, s)
	for _, w := range [2]*sloWindow{&s.fast, &s.slow} {
		b := w.slot(now)
		b.events++
		if status >= 500 {
			b.errors++
		}
		if op == "detect" && status < 400 {
			b.detects++
			if obj.detectP99 > 0 && d > obj.detectP99 {
				b.detectSlow++
			}
		}
	}
	s.mu.Unlock()
}

// SLOWindowEval is one window's evaluated state, as served by
// /debug/slo and rendered on /metrics.
type SLOWindowEval struct {
	WindowSeconds int64   `json:"window_seconds"`
	Events        uint64  `json:"events"`
	Errors        uint64  `json:"errors"`
	Detects       uint64  `json:"detects"`
	DetectSlow    uint64  `json:"detect_slow"`
	DetectBurn    float64 `json:"detect_p99_burn_rate"`
	DetectBudget  float64 `json:"detect_p99_budget_remaining"`
	ErrorBurn     float64 `json:"error_ratio_burn_rate"`
	ErrorBudget   float64 `json:"error_ratio_budget_remaining"`
}

// SLOOwnerEval is one tenant's full evaluation.
type SLOOwnerEval struct {
	Owner       string        `json:"owner"`
	DetectP99MS float64       `json:"detect_p99_ms,omitempty"`
	ErrorRatio  float64       `json:"error_ratio,omitempty"`
	Fast        SLOWindowEval `json:"fast"`
	Slow        SLOWindowEval `json:"slow"`
}

// evalWindow computes one window's burn rates. The p99 objective's
// budget fraction is fixed at 1% (it is a p99); the error objective's
// budget fraction is the declared ratio itself.
func evalWindow(w *sloWindow, obj sloObjectives, now int64) SLOWindowEval {
	ev, er, det, slow := w.sums(now)
	out := SLOWindowEval{
		WindowSeconds: w.bucketSecs * int64(len(w.buckets)),
		Events:        ev, Errors: er, Detects: det, DetectSlow: slow,
	}
	if obj.detectP99 > 0 && det > 0 {
		out.DetectBurn = (float64(slow) / float64(det)) / 0.01
	}
	out.DetectBudget = 1 - out.DetectBurn
	if obj.errorRatio > 0 && ev > 0 {
		out.ErrorBurn = (float64(er) / float64(ev)) / obj.errorRatio
	}
	out.ErrorBudget = 1 - out.ErrorBurn
	return out
}

func (m *metrics) evalSlot(owner string, s *sloState, now int64) SLOOwnerEval {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj := m.objectives(owner, s)
	out := SLOOwnerEval{
		Owner:      owner,
		ErrorRatio: obj.errorRatio,
		Fast:       evalWindow(&s.fast, obj, now),
		Slow:       evalWindow(&s.slow, obj, now),
	}
	if obj.detectP99 > 0 {
		out.DetectP99MS = float64(obj.detectP99.Microseconds()) / 1000
	}
	return out
}

// evaluateSLO evaluates the aggregate and then every owner block,
// owner-sorted — what /debug/slo serves and the watchdog checks.
func (m *metrics) evaluateSLO(now int64) []SLOOwnerEval {
	m.mu.Lock()
	owners := entries(m.owners)
	m.mu.Unlock()
	sortByKey(owners, strings.Compare)
	return m.evalSLO(owners, now)
}

// evalSLO evaluates the aggregate and the given owner blocks, in order.
// /metrics passes the blocks it renders the owner counters from, so
// both name the same owners.
func (m *metrics) evalSLO(owners []keyed[string, *ownerStats], now int64) []SLOOwnerEval {
	out := make([]SLOOwnerEval, 0, len(owners)+1)
	out = append(out, m.evalSlot(sloTotalOwner, m.total, now))
	for _, o := range owners {
		out = append(out, m.evalSlot(o.k, o.v.slo, now))
	}
	return out
}

// sloObjectivesFrom resolves a registry owner's override against the
// service defaults: an absent override keeps the default, a zero field
// keeps the default for that field, a negative field disables the
// objective for that tenant.
func sloObjectivesFrom(defaults sloObjectives, o *registry.SLOOverride) sloObjectives {
	out := defaults
	if o == nil {
		return out
	}
	if o.DetectP99MS > 0 {
		out.detectP99 = time.Duration(o.DetectP99MS * float64(time.Millisecond))
	} else if o.DetectP99MS < 0 {
		out.detectP99 = 0
	}
	if o.ErrorRatio > 0 {
		out.errorRatio = o.ErrorRatio
	} else if o.ErrorRatio < 0 {
		out.errorRatio = 0
	}
	return out
}
