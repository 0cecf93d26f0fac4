package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. IDs index the recording
// client's span slice; Parent is -1 for a root span (an op or a replay).
type span struct {
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names that structure a trace rather than measure a layer.
const (
	spanOp     = "op"
	spanServe  = "ServeHTTP " // one handler call; the route follows
	spanReplay = "replay"
	spanLookup = "trace.lookup" // the tracer finding the client of a registry call
)

// clientTrace records one client's spans in memory. Only that client's
// goroutine appends to it, so it needs no lock.
type clientTrace struct {
	epoch  time.Time
	spans  []span
	op     int64
	parent int32
}

// begin opens a span at time at under the current parent and makes it
// the parent of spans recorded until end.
func (t *clientTrace) begin(name string, at time.Time) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: t.parent, Name: name, Start: at.Sub(t.epoch).Nanoseconds()})
	t.parent = id
	return id
}

// end closes span id at time at and restores its parent as the current
// one.
func (t *clientTrace) end(id int32, at time.Time) {
	s := &t.spans[id]
	s.End = at.Sub(t.epoch).Nanoseconds()
	t.parent = s.Parent
}

// add records a finished span under the current parent.
func (t *clientTrace) add(name string, start, end time.Time) {
	t.spans = append(t.spans, span{
		Op: t.op, ID: int32(len(t.spans)), Parent: t.parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
}

// layer times fn as a span named name under the current parent.
func (t *clientTrace) layer(name string, fn func()) {
	start := time.Now()
	fn()
	t.add(name, start, time.Now())
}

// tracer owns the clients' traces and attributes registry calls, which
// the server makes on the calling client's goroutine, to that client.
type tracer struct {
	clients []*clientTrace
	orphans atomic.Int64 // registry calls from goroutines no client owns
}

func newTracer(clients int, epoch time.Time, spansPerClient int) *tracer {
	tr := &tracer{}
	for range clients {
		tr.clients = append(tr.clients, &clientTrace{epoch: epoch, spans: make([]span, 0, spansPerClient), parent: -1})
	}
	return tr
}

// observeRegistry is the timedStore observer: it records the call as a
// span of the client whose goroutine made it, plus a span for finding
// that client, so the lookup is not counted as server time.
func (tr *tracer) observeRegistry(call string, start, end time.Time) {
	k := callingClient()
	if k < 0 || k >= len(tr.clients) {
		tr.orphans.Add(1)
		return
	}
	t := tr.clients[k]
	t.add(call, start, end)
	t.add(spanLookup, end, time.Now())
}

// Registry calls carry no context, so the tracer finds the client that
// made one from the call stack: client k runs its loop under k+1 nested
// frames of nest, and callingClient counts them. Every nest frame returns
// to one of nest's two call sites, so counting those two addresses
// counts nest frames exactly; runtime.Callers does not symbolize frames,
// so the count is cheap.

//go:noinline
func nest(depth int, fn func()) {
	if depth > 0 {
		nest(depth-1, fn)
		return
	}
	fn()
}

// nestPCs are the return addresses of nest's two call sites, read once
// from the stack inside a two-deep nest.
var nestPCs = func() (pcs [2]uintptr) {
	nest(1, func() { runtime.Callers(2, pcs[:]) })
	return pcs
}()

// callingClient returns the client whose loop runs on the calling
// goroutine, or -1 when it runs under no client.
func callingClient() int {
	var pcs [256]uintptr
	depth := 0
	for _, pc := range pcs[:runtime.Callers(2, pcs[:])] {
		if pc == nestPCs[0] || pc == nestPCs[1] {
			depth++
		}
	}
	return depth - 1
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. spans[i].ID must be i.
func selfTimes(spans []span) []int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s.Start, s.End, kids[i])
	}
	return out
}

// covered returns how much of [lo, hi) the union of intervals covers.
func covered(lo, hi int64, intervals [][2]int64) int64 {
	slices.SortFunc(intervals, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var sum int64
	cur := lo
	for _, iv := range intervals {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// isLayer reports whether a span measures a layer (or the tracer's own
// bookkeeping) rather than structuring the trace.
func isLayer(name string) bool {
	return name != spanOp && name != spanReplay && !strings.HasPrefix(name, spanServe)
}

// opLayers adds one client's spans to the per-op tallies: each op's
// wall time from its op span, and per op the summed self time of every
// layer span in nanoseconds.
func opLayers(spans []span, layers map[int64]map[string]int64, wall map[int64]int64) {
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Name == spanOp {
			wall[s.Op] = s.End - s.Start
			continue
		}
		if !isLayer(s.Name) {
			continue
		}
		m := layers[s.Op]
		if m == nil {
			m = make(map[string]int64)
			layers[s.Op] = m
		}
		m[s.Name] += self[i]
	}
}

// layerMedians turns per-op layer sums into the per-layer metrics: for
// each named layer, the median over ops of its per-op self time in
// microseconds (0 for ops that never entered it), and
// server.unattributed_us, the median of op wall time minus everything
// measured for the op.
func layerMedians(layers map[int64]map[string]int64, wall map[int64]int64, names []string) map[string]float64 {
	out := make(map[string]float64, len(names)+1)
	vals := make([]float64, 0, len(wall))
	for _, n := range names {
		vals = vals[:0]
		for op := range wall {
			vals = append(vals, float64(layers[op][n])/1e3)
		}
		out[n+"_us"] = median(vals)
	}
	vals = vals[:0]
	for op, w := range wall {
		measured := int64(0)
		for _, v := range layers[op] {
			measured += v
		}
		vals = append(vals, float64(w-measured)/1e3)
	}
	out["server.unattributed_us"] = median(vals)
	return out
}

// writeSpans writes every client's spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for c, t := range tr.clients {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Client int `json:"client"`
				span
			}{c, s}); err != nil {
				f.Close()
				return fmt.Errorf("write spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
