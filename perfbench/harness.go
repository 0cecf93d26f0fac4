package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wmxml/internal/obs"
	"wmxml/internal/registry"
	"wmxml/internal/server"
)

// respWriter is a reusable in-memory http.ResponseWriter: its header map
// and body buffer keep their storage from one request to the next.
// Headers the handler sets after the status line are the response's
// trailers, as the Trailer header declares them.
type respWriter struct {
	hdr   http.Header
	code  int
	wrote bool
	body  bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{hdr: make(http.Header), code: http.StatusOK} }

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// Flush lets the streaming endpoints flush as they would on a
// connection; the response is already in memory.
func (w *respWriter) Flush() {}

func (w *respWriter) reset() {
	clear(w.hdr)
	w.code, w.wrote = http.StatusOK, false
	w.body.Reset()
}

// owner is one registered tenant, its owner= query and the request
// header carrying its Bearer key.
type owner struct {
	id, key, mark string
	query         string
	auth          http.Header
}

func newOwner(id, key, mark string) owner {
	return owner{id: id, key: key, mark: mark, query: "owner=" + id, auth: http.Header{
		"Authorization": {"Bearer " + key},
		"Content-Type":  {"application/xml"},
	}}
}

// client is one closed-loop caller: it sends a request, waits for the
// reply, and only then sends the next. Its request, body reader and
// response buffers are reused for every request it makes.
type client struct {
	id   int
	h    http.Handler
	req  http.Request
	url  url.URL
	body bytes.Reader
	out  [2]*respWriter // replies to an op's first and second request

	doc     []byte     // this client's copy of the input; ops patch its nonce
	rng     *rand.Rand // picks which cached suspect each op detects
	last    opInfo
	verdict verdictCheck

	lat      []float64 // per-op latency in ms; +Inf for a failed op
	failed   int
	firstErr error
	decodes  int // receipts tried over the phase's buffered detects

	tr      *clientTrace // nil outside a traced phase
	scratch bytes.Buffer // replay output
}

// opInfo is what the handler reported doing in an op, which the replay
// repeats.
type opInfo struct {
	suspect  int // index of the cached suspect detected
	cacheHit bool
	tried    int
}

// verdictCheck holds the fields of a detect verdict the output checks
// read; the others are skipped without allocating.
type verdictCheck struct {
	Detected      bool `json:"detected"`
	ReceiptsTried int  `json:"receipts_tried"`
	CacheHit      bool `json:"cache_hit"`
	Chunks        int  `json:"chunks"`
}

// newClient builds client id. Its suspect picks are drawn from its own
// stream of the run's seed, so two clients detect the same document (and
// share its index lock) on a steady share of ops.
func newClient(id int, seed int64, samples int) *client {
	c := &client{
		id:  id,
		out: [2]*respWriter{newRespWriter(), newRespWriter()},
		rng: rand.New(rand.NewPCG(uint64(seed), uint64(id))),
		lat: make([]float64, 0, samples),
	}
	c.req = http.Request{
		Method:     http.MethodPost,
		URL:        &c.url,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Host:       "perfbench",
		RemoteAddr: "127.0.0.1:1",
		Body:       io.NopCloser(&c.body),
	}
	return c
}

// post sends one request through the handler and returns once the reply
// is complete in out.
func (c *client) post(path, query string, o *owner, body []byte, out *respWriter) {
	c.url.Path, c.url.RawQuery = path, query
	c.req.Header = o.auth
	c.body.Reset(body)
	c.req.ContentLength = int64(len(body))
	out.reset()
	if c.tr == nil {
		c.h.ServeHTTP(out, &c.req)
		return
	}
	sp := c.tr.begin(spanServe+path, time.Now())
	c.h.ServeHTTP(out, &c.req)
	c.tr.end(sp, time.Now())
}

// readVerdict decodes the detect verdict in out after checking the
// status.
func (c *client) readVerdict(out *respWriter) error {
	if out.code != http.StatusOK {
		return fmt.Errorf("detect: status %d: %s", out.code, bytes.TrimSpace(out.body.Bytes()))
	}
	c.verdict = verdictCheck{}
	if err := json.Unmarshal(out.body.Bytes(), &c.verdict); err != nil {
		return fmt.Errorf("detect: decode verdict: %w", err)
	}
	return nil
}

// bench is one server under test: the real service handler over a
// durable File registry, with the daemon's defaults for everything else.
type bench struct {
	h       http.Handler
	srv     *server.Server
	file    *registry.File
	timed   *timedStore // set on traced runs
	clients []*client
	nextOp  atomic.Int64
	// compiles is how many plans each detect compiled in the untraced
	// phase, which the traced phase's replays repeat.
	compiles int
}

// newBench builds a server over a fresh File registry at dir and points
// the clients at it. It returns the registry open time.
//
// The server is the one wmxml.NewServerHandler builds from
// ServerOptions{Registry: store, LogWriter: io.Discard}: every other
// option at its zero value, which the server resolves to the daemon's
// defaults. It is built through server.New so that close can stop its
// runtime health collector once the server is no longer measured.
func newBench(dir string, clients []*client, traced bool) (*bench, time.Duration, error) {
	start := time.Now()
	f, err := registry.OpenFile(filepath.Join(dir, "registry.jsonl"), registry.FileOptions{})
	if err != nil {
		return nil, 0, fmt.Errorf("open registry: %w", err)
	}
	openTime := time.Since(start)
	b := &bench{file: f, clients: clients}
	var store registry.Store = f
	if traced {
		b.timed = &timedStore{inner: f}
		store = b.timed
	}
	b.srv, err = server.New(server.Options{Registry: store, Logger: obs.NewLogger(io.Discard, obs.LogOptions{})})
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("server: %w", err)
	}
	b.h = b.srv.Handler()
	for _, c := range clients {
		c.h = b.h
	}
	return b, openTime, nil
}

// close stops the server's background work, unhooks the clients from it
// so that its caches can be collected, and closes its registry.
func (b *bench) close() error {
	b.srv.Close()
	for _, c := range b.clients {
		if c.h == b.h {
			c.h = nil
		}
	}
	return b.file.Close()
}

// register adds an owner of the pubs document type.
func (b *bench) register(o owner) error {
	body, err := json.Marshal(map[string]string{"id": o.id, "key": o.key, "mark": o.mark, "dataset": "pubs"})
	if err != nil {
		return err
	}
	c := b.clients[0]
	c.post("/v1/owners", "", &o, body, c.out[0])
	if c.out[0].code != http.StatusOK {
		return fmt.Errorf("register %s: status %d: %s", o.id, c.out[0].code, c.out[0].body.Bytes())
	}
	return nil
}

// scrape reads the server's /metrics counters.
func (b *bench) scrape() (map[string]float64, error) {
	r, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	w := newRespWriter()
	b.h.ServeHTTP(w, r)
	if w.code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", w.code)
	}
	return parseCounters(w.body.Bytes()), nil
}

// parallel makes n calls of fn, spreading them over the clients, and
// returns the first error.
func (b *bench) parallel(n int, fn func(c *client) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(b.clients))
	for k, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < n; i += len(b.clients) {
				if err := fn(c); err != nil {
					errs[k] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// phase is the outcome of one timed closed-loop phase, or of the
// untraced phases of all a run's rounds merged.
type phase struct {
	elapsed   time.Duration
	attempted int
	failed    int
	lat       []float64 // sorted; failed ops as +Inf
	decodes   int
	firstErr  error
	before    snapshot
	after     snapshot
	rss       []rssSample
	rssPeaks  []float64 // each window's peak resident set, MiB
}

// merge adds round r's phase to p, the merged phase of a run: counts,
// time and samples add up, p.after gathers the change r saw since
// r.before (p.before stays the zero snapshot), and r's resident-set
// samples are cut into windows windows whose peaks p keeps.
func (p *phase) merge(r *phase, windows int) {
	p.elapsed += r.elapsed
	p.attempted += r.attempted
	p.failed += r.failed
	p.decodes += r.decodes
	p.lat = append(p.lat, r.lat...)
	slices.Sort(p.lat)
	if p.firstErr == nil {
		p.firstErr = r.firstErr
	}
	p.after.accumulate(r.before, r.after)
	p.rssPeaks = append(p.rssPeaks, windowPeaks(r.rss, r.elapsed, windows)...)
}

// run drives the closed loop for d: each client runs ops back to back,
// each op waiting for its replies. With tr set, every op is traced and
// followed by its replay. Runtime and counter readings bracket the loop.
func (b *bench) run(w workload, d time.Duration, tr *tracer) (*phase, error) {
	for i, c := range b.clients {
		c.failed, c.firstErr, c.decodes = 0, nil, 0
		c.lat = c.lat[:0]
		c.tr = nil
		if tr != nil {
			c.tr = tr.clients[i]
		}
	}
	p := &phase{}
	var err error
	if p.before.counters, err = b.scrape(); err != nil {
		return nil, err
	}
	if err := readRuntime(&p.before); err != nil {
		return nil, err
	}
	if b.timed != nil && tr != nil {
		b.timed.observe = tr.observeRegistry
		b.timed.on.Store(true)
	}
	t0 := time.Now()
	deadline := t0.Add(d)
	stopRSS, rssErr := make(chan struct{}), make(chan error, 1)
	go func() {
		var err error
		p.rss, err = sampleRSS(t0, stopRSS)
		rssErr <- err
	}()
	var done sync.WaitGroup
	for _, c := range b.clients {
		done.Add(1)
		go func() {
			defer done.Done()
			nest(c.id, func() { b.loop(w, c, deadline) })
		}()
	}
	done.Wait()
	p.elapsed = time.Since(t0)
	close(stopRSS)
	if err := <-rssErr; err != nil {
		return nil, fmt.Errorf("sample resident set: %w", err)
	}
	if b.timed != nil {
		b.timed.on.Store(false)
	}
	if err := readRuntime(&p.after); err != nil {
		return nil, err
	}
	if p.after.counters, err = b.scrape(); err != nil {
		return nil, err
	}
	for _, c := range b.clients {
		p.attempted += len(c.lat)
		p.failed += c.failed
		p.decodes += c.decodes
		p.lat = append(p.lat, c.lat...)
		if p.firstErr == nil {
			p.firstErr = c.firstErr
		}
		c.tr = nil
	}
	slices.Sort(p.lat)
	return p, nil
}

// loop is one client's closed loop.
func (b *bench) loop(w workload, c *client, deadline time.Time) {
	for time.Now().Before(deadline) {
		id := b.nextOp.Add(1)
		var sp int32
		start := time.Now()
		if c.tr != nil {
			c.tr.op = id
			sp = c.tr.begin(spanOp, start)
		}
		err := w.op(b, c, id)
		end := time.Now()
		if c.tr != nil {
			c.tr.end(sp, end)
		}
		if err == nil {
			err = w.check(c)
		}
		if err != nil {
			c.failed++
			c.lat = append(c.lat, math.Inf(1))
			if c.firstErr == nil {
				c.firstErr = err
			}
			continue
		}
		c.lat = append(c.lat, float64(end.Sub(start).Nanoseconds())/1e6)
		c.decodes += c.last.tried
		if c.tr != nil {
			rp := c.tr.begin(spanReplay, time.Now())
			w.replay(b, c)
			c.tr.end(rp, time.Now())
		}
	}
}
