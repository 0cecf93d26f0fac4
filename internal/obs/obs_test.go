package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		in     string
		wantID string
		ok     bool
	}{
		{valid, "4bf92f3577b34da6a3ce929d0e0e4736", true},
		{valid + "-extradata", "4bf92f3577b34da6a3ce929d0e0e4736", true}, // future version with extra fields
		{"", "", false},
		{"garbage", "", false},
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", "", false},    // missing flags
		{"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "", false}, // forbidden version
		{"00-00000000000000000000000000000000-00f067aa0ba902b7-01", "", false}, // all-zero trace id
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", "", false}, // all-zero span id
		{"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", "", false}, // uppercase forbidden by spec
		{"00-4bf92f3577b34da6a3ce929d0e0e473x-00f067aa0ba902b7-01", "", false}, // non-hex
		{valid + "x", "", false}, // trailing junk without a dash
	}
	for _, c := range cases {
		id, ok := ParseTraceparent(c.in)
		if ok != c.ok || id != c.wantID {
			t.Errorf("ParseTraceparent(%q) = (%q, %v), want (%q, %v)", c.in, id, ok, c.wantID, c.ok)
		}
	}
}

func TestStartRequestAdoptsTraceID(t *testing.T) {
	parent := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tr := StartRequest(parent, "/v1/detect")
	if tr.ID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("id = %q, want the parent trace id", tr.ID())
	}
	echo := tr.Traceparent()
	if !strings.HasPrefix(echo, "00-4bf92f3577b34da6a3ce929d0e0e4736-") || !strings.HasSuffix(echo, "-01") {
		t.Fatalf("echo = %q: want same trace id, sampled flag", echo)
	}
	if strings.Contains(echo, "00f067aa0ba902b7") {
		t.Fatalf("echo = %q reuses the parent span id", echo)
	}
	if _, ok := ParseTraceparent(echo); !ok {
		t.Fatalf("echo %q is not itself a valid traceparent", echo)
	}
}

func TestStartRequestFreshID(t *testing.T) {
	a := StartRequest("", "/v1/embed")
	b := StartRequest("not-a-traceparent", "/v1/embed")
	if len(a.ID()) != 32 || len(b.ID()) != 32 {
		t.Fatalf("ids %q / %q: want 32 hex chars", a.ID(), b.ID())
	}
	if a.ID() == b.ID() {
		t.Fatal("two requests got the same id")
	}
	if b.Route() != "/v1/embed" {
		t.Fatalf("route = %q", b.Route())
	}
}

func TestTraceSpansAndSnapshot(t *testing.T) {
	tr := StartRequest("", "/v1/detect")
	tr.SetOwner("acme")
	tr.SetOp("detect")
	tr.SetVerdict("detected")
	tr.SetDocBytes(1234)
	tr.SetCacheHit(true)

	sp := tr.StartSpan("parse")
	time.Sleep(time.Millisecond)
	sp.End()
	csp := tr.StartSpan("cache")
	csp.EndNote("hit")
	// Two decode spans must sum in StageDurations.
	d1 := tr.StartSpan("decode")
	time.Sleep(time.Millisecond)
	d1.End()
	d2 := tr.StartSpan("decode")
	time.Sleep(time.Millisecond)
	d2.End()

	snap := tr.Finish(200, 5*time.Millisecond)
	if snap.Owner != "acme" || snap.Op != "detect" || snap.Verdict != "detected" ||
		snap.DocBytes != 1234 || !snap.CacheHit || snap.Status != 200 {
		t.Fatalf("snapshot fields: %+v", snap)
	}
	if len(snap.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(snap.Spans))
	}
	if snap.Spans[1].Note != "hit" {
		t.Fatalf("cache span note = %q", snap.Spans[1].Note)
	}
	for i := 1; i < len(snap.Spans); i++ {
		if snap.Spans[i].StartUS < snap.Spans[i-1].StartUS {
			t.Fatalf("span starts not monotone: %+v", snap.Spans)
		}
	}
	st := snap.StageDurations(nil)
	if len(st) != 3 || st[0].Name != "parse" || st[1].Name != "cache" || st[2].Name != "decode" {
		t.Fatalf("stages %+v, want parse, cache, decode in first-seen order", st)
	}
	if st[0].D < time.Millisecond {
		t.Fatalf("parse stage %v, want >= 1ms", st[0].D)
	}
	if st[2].D < 2*time.Millisecond {
		t.Fatalf("decode stage %v, want the sum of both decode spans (>= 2ms)", st[2].D)
	}
}

func TestTraceDisableSpans(t *testing.T) {
	tr := StartRequest("", "/v1/detect")
	tr.DisableSpans()
	sp := tr.StartSpan("parse")
	sp.End()
	snap := tr.Finish(200, time.Millisecond)
	if len(snap.Spans) != 0 {
		t.Fatalf("disabled trace recorded %d spans", len(snap.Spans))
	}
	if snap.RequestID == "" {
		t.Fatal("disabling spans must not drop the request id")
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Route() != "" || tr.Traceparent() != "" {
		t.Fatal("nil trace accessors must return empty strings")
	}
	tr.DisableSpans()
	tr.SetOwner("x")
	tr.SetOp("x")
	tr.SetVerdict("x")
	tr.SetDocBytes(1)
	tr.SetCacheHit(true)
	sp := tr.StartSpan("parse")
	sp.End()
	sp.EndNote("note")
	if snap := tr.Finish(200, time.Second); snap != nil {
		t.Fatal("nil trace Finish must return nil")
	}
	if (&Snapshot{}).StageDurations(nil) != nil {
		t.Fatal("empty snapshot StageDurations must be nil")
	}
	var ns *Snapshot
	if ns.StageDurations(nil) != nil {
		t.Fatal("nil snapshot StageDurations must be nil")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := StartRequest("", "/v1/embed")
	ctx := NewContext(t.Context(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost through the context")
	}
	if FromContext(t.Context()) != nil {
		t.Fatal("bare context must carry no trace")
	}
	if NewContext(t.Context(), nil) != t.Context() {
		t.Fatal("NewContext(nil) must return ctx unchanged")
	}
}

func snapWithDur(i int, us float64) *Snapshot {
	return &Snapshot{RequestID: fmt.Sprintf("req-%03d", i), Route: "/v1/detect", Status: 200, DurationUS: us}
}

func TestTraceRingRecentEviction(t *testing.T) {
	r := NewTraceRing(4)
	for i := 0; i < 10; i++ {
		r.Add(snapWithDur(i, float64(i)))
	}
	rec := r.Recent()
	if len(rec) != 4 {
		t.Fatalf("recent len = %d, want 4", len(rec))
	}
	// Newest first: 9, 8, 7, 6 — the first six evicted.
	for i, want := range []string{"req-009", "req-008", "req-007", "req-006"} {
		if rec[i].RequestID != want {
			t.Fatalf("recent[%d] = %s, want %s (full: %v)", i, rec[i].RequestID, want, ids(rec))
		}
	}
}

func TestTraceRingSlowestK(t *testing.T) {
	r := NewTraceRing(3)
	// Durations chosen so the slowest set is not the most recent set.
	for i, us := range []float64{50, 900, 10, 700, 30, 800, 20} {
		r.Add(snapWithDur(i, us))
	}
	sl := r.Slowest()
	if len(sl) != 3 {
		t.Fatalf("slowest len = %d, want 3", len(sl))
	}
	for i, want := range []float64{900, 800, 700} {
		if sl[i].DurationUS != want {
			t.Fatalf("slowest[%d] = %v, want %v", i, sl[i].DurationUS, want)
		}
	}
}

func ids(ss []*Snapshot) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.RequestID
	}
	return out
}

func TestTraceRingHandlerJSON(t *testing.T) {
	r := NewTraceRing(2)
	r.Add(snapWithDur(0, 100))
	r.Add(snapWithDur(1, 50))
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var page struct {
		RingSize int         `json:"ring_size"`
		Seen     uint64      `json:"seen"`
		Recent   []*Snapshot `json:"recent"`
		Slowest  []*Snapshot `json:"slowest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if page.RingSize != 2 || page.Seen != 2 {
		t.Fatalf("page meta: %+v", page)
	}
	if len(page.Recent) != 2 || page.Recent[0].RequestID != "req-001" {
		t.Fatalf("recent: %v", ids(page.Recent))
	}
	if len(page.Slowest) != 2 || page.Slowest[0].RequestID != "req-000" {
		t.Fatalf("slowest: %v", ids(page.Slowest))
	}
}

func TestNilTraceRing(t *testing.T) {
	if NewTraceRing(0) != nil || NewTraceRing(-1) != nil {
		t.Fatal("k <= 0 must return a nil ring")
	}
	var r *TraceRing
	r.Add(snapWithDur(0, 1)) // must not panic
	if r.Recent() != nil || r.Slowest() != nil {
		t.Fatal("nil ring accessors must return nil")
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var page map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("nil ring page not JSON: %v", err)
	}
	if page["ring_size"].(float64) != 0 {
		t.Fatalf("nil ring page: %v", page)
	}
}

func TestLoggerLevelsAndJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LogOptions{Level: "warn"})
	l.Debug("d")
	l.Info("i")
	l.Warn("w", "k", "v")
	l.Error("e")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 (warn+error): %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line not JSON: %v", err)
	}
	if rec["msg"] != "w" || rec["level"] != "WARN" || rec["k"] != "v" {
		t.Fatalf("record: %v", rec)
	}
	buf.Reset()
	NewLogger(&buf, LogOptions{Level: "debug"}).Debug("now visible")
	if !strings.Contains(buf.String(), "now visible") {
		t.Fatal("debug suppressed at level debug")
	}
}

func TestLoggerTextFormatAndWith(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, LogOptions{Format: "text"}).Info("hello", "request_id", "abc123")
	line := buf.String()
	if strings.HasPrefix(strings.TrimSpace(line), "{") {
		t.Fatalf("text format emitted JSON: %q", line)
	}
	if !strings.Contains(line, "msg=hello") || !strings.Contains(line, "request_id=abc123") {
		t.Fatalf("text record missing its message or field: %q", line)
	}
}

func TestNilLoggerIsInert(t *testing.T) {
	var l *Logger
	l.Debug("d")
	l.Info("i")
	l.Warn("w", "k", "v")
	l.Error("e")
}

func TestParseLevel(t *testing.T) {
	for _, bad := range []string{"trace", "verbose", "INFO "} {
		if _, err := ParseLevel(bad); bad != "INFO " && err == nil {
			t.Fatalf("ParseLevel(%q) accepted", bad)
		}
	}
	if lv, err := ParseLevel(" Warning "); err != nil || lv.String() != "WARN" {
		t.Fatalf("ParseLevel(Warning) = %v, %v", lv, err)
	}
	if lv, err := ParseLevel(""); err != nil || lv.String() != "INFO" {
		t.Fatalf("ParseLevel(\"\") = %v, %v", lv, err)
	}
}
