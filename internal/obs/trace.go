package obs

import (
	"context"
	"sync"
	"time"
)

// Trace is one request's span record. Create with StartRequest, carry
// with NewContext/FromContext, close with Finish. All methods are safe
// on a nil receiver (they do nothing), which is how un-instrumented
// library calls stay free, and safe for concurrent use (stream chunk
// workers emit spans from several goroutines).
type Trace struct {
	id     string
	parent string // the incoming traceparent header verbatim, "" if none
	echo   string // the traceparent echoed back (fresh span id)
	route  string
	start  time.Time // carries the monotonic clock; all offsets derive from it

	mu       sync.Mutex
	spans    []span
	owner    string
	op       string
	verdict  string
	docBytes int64
	cacheHit bool
	noSpans  bool
}

type span struct {
	name  string
	start time.Duration
	dur   time.Duration
	note  string
}

// StartRequest opens a trace for one request. A valid W3C traceparent
// header donates its trace-id as the request id (so the caller's
// distributed trace and our request id are the same token); anything
// else gets a fresh random id.
func StartRequest(traceparent, route string) *Trace {
	t := &Trace{route: route, start: time.Now(), spans: make([]span, 0, 16)}
	if tid, ok := ParseTraceparent(traceparent); ok {
		t.id = tid
		t.parent = traceparent
	} else {
		t.id = newID()
	}
	t.echo = "00-" + t.id + "-" + newSpanID() + "-01"
	return t
}

// ID returns the request id ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Route returns the route label ("" on nil).
func (t *Trace) Route() string {
	if t == nil {
		return ""
	}
	return t.route
}

// Traceparent returns the header to echo: same trace-id, fresh span
// id, sampled flag set ("" on nil).
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	return t.echo
}

// DisableSpans turns span recording off for this trace (request ids,
// logging fields and metrics folding still work). The daemon uses this
// when the trace ring is configured away.
func (t *Trace) DisableSpans() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.noSpans = true
	t.mu.Unlock()
}

// Span is an open span handle. The zero value (from a nil or disabled
// trace) is inert: End does nothing.
type Span struct {
	t     *Trace
	name  string
	start time.Duration
}

// StartSpan opens a named stage span. On a nil or span-disabled trace
// it returns the inert zero handle without allocating.
func (t *Trace) StartSpan(name string) Span {
	if t == nil || t.noSpans {
		return Span{}
	}
	return Span{t: t, name: name, start: time.Since(t.start)}
}

// End closes the span.
func (s Span) End() { s.EndNote("") }

// EndNote closes the span with an annotation (e.g. "hit" / "miss" on a
// cache lookup span).
func (s Span) EndNote(note string) {
	if s.t == nil {
		return
	}
	d := time.Since(s.t.start) - s.start
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{name: s.name, start: s.start, dur: d, note: note})
	s.t.mu.Unlock()
}

// SetOwner records the tenant the request resolved to.
func (t *Trace) SetOwner(owner string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.owner = owner
	t.mu.Unlock()
}

// SetOp records the logical operation (embed, detect, deliver, ...)
// for per-owner op counters and the access log.
func (t *Trace) SetOp(op string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// SetVerdict records the request's domain outcome (e.g. "detected").
func (t *Trace) SetVerdict(v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.verdict = v
	t.mu.Unlock()
}

// SetDocBytes records the request document size.
func (t *Trace) SetDocBytes(n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.docBytes = n
	t.mu.Unlock()
}

// SetCacheHit records whether the suspect-document cache answered.
func (t *Trace) SetCacheHit(hit bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cacheHit = hit
	t.mu.Unlock()
}

// SpanInfo is one completed stage in a trace snapshot.
type SpanInfo struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Note    string  `json:"note,omitempty"`
}

// Snapshot is a completed trace, immutable once built — the unit the
// TraceRing retains and /debug/traces serves.
type Snapshot struct {
	RequestID  string     `json:"request_id"`
	Parent     string     `json:"traceparent,omitempty"`
	Route      string     `json:"route"`
	Owner      string     `json:"owner,omitempty"`
	Op         string     `json:"op,omitempty"`
	Status     int        `json:"status"`
	Verdict    string     `json:"verdict,omitempty"`
	DocBytes   int64      `json:"doc_bytes,omitempty"`
	CacheHit   bool       `json:"cache_hit,omitempty"`
	StartUnix  int64      `json:"start_unix"`
	DurationUS float64    `json:"dur_us"`
	Spans      []SpanInfo `json:"spans"`
}

// Finish closes the trace with the response status and total duration
// and returns the immutable snapshot (nil on a nil trace).
func (t *Trace) Finish(status int, d time.Duration) *Snapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := &Snapshot{
		RequestID:  t.id,
		Parent:     t.parent,
		Route:      t.route,
		Owner:      t.owner,
		Op:         t.op,
		Status:     status,
		Verdict:    t.verdict,
		DocBytes:   t.docBytes,
		CacheHit:   t.cacheHit,
		StartUnix:  t.start.Unix(),
		DurationUS: float64(d.Nanoseconds()) / 1e3,
		Spans:      make([]SpanInfo, len(t.spans)),
	}
	for i, sp := range t.spans {
		snap.Spans[i] = SpanInfo{
			Name:    sp.name,
			StartUS: float64(sp.start.Nanoseconds()) / 1e3,
			DurUS:   float64(sp.dur.Nanoseconds()) / 1e3,
			Note:    sp.note,
		}
	}
	return snap
}

// StageDuration is one stage's summed span time within a request.
type StageDuration struct {
	Name string
	D    time.Duration
}

// StageDurations sums span durations by stage name, in first-seen
// order, into buf[:0] — the per-stage histogram feed. A request records
// a dozen distinct stages at most, so a caller passing a stack array of
// that size allocates nothing, however many spans the request has.
func (s *Snapshot) StageDurations(buf []StageDuration) []StageDuration {
	out := buf[:0]
	if s == nil {
		return out
	}
next:
	for _, sp := range s.Spans {
		d := time.Duration(sp.DurUS * 1e3)
		for i := range out {
			if out[i].Name == sp.Name {
				out[i].D += d
				continue next
			}
		}
		out = append(out, StageDuration{sp.Name, d})
	}
	return out
}

type ctxKey struct{}

// NewContext attaches a trace to a context. A nil trace returns ctx
// unchanged, so downstream FromContext stays nil and free.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the request trace, or nil when the context does
// not carry one (every non-daemon call path).
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
