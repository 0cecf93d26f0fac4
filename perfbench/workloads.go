package main

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"strings"

	"wmxml/internal/core"
	"wmxml/internal/datagen"
	"wmxml/internal/identity"
	"wmxml/internal/index"
	"wmxml/internal/wmark"
	"wmxml/internal/xmltree"
)

// workload is one traffic mix driven through the real handler.
type workload interface {
	// rounds is how many times a run sets up a fresh server and measures
	// it: enough set-ups for a steady median of their time, and no more
	// than the run can afford.
	rounds() int
	// setup registers the workload's owners and brings a fresh server
	// to the state the timed ops expect: seeded receipts, warm caches.
	setup(b *bench) error
	// op runs one timed operation on client c: one request, or an embed
	// and detect pair, each waiting for its reply. id is unique in the
	// run and makes never-seen bodies unique.
	op(b *bench, c *client, id int64) error
	// check validates the outputs of c's last op and records in c.last
	// what the handler reported doing.
	check(c *client) error
	// prepareReplay builds what replays need beyond each op's own bytes:
	// the parsed documents, indexes and plans the server holds cached.
	prepareReplay(b *bench) error
	// replay re-runs the other layer calls of c's last op on its bytes,
	// through each layer's public function, as traced spans.
	replay(b *bench, c *client)
}

// Workload sizes. Documents are pubs documents of docRecords records
// (about 238 KB) unless a workload says otherwise.
const (
	docRecords      = 1000
	streamRecords   = 10000 // about 2.4 MB, about 40 chunks of 256 records
	warmTenants     = 4
	docCacheEntries = 128 // the daemon's default doc-cache size
	mark            = "(C)ACME"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"detect-warm", "ingest", "stream"}

// newWorkload generates a workload's inputs from seed.
func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "detect-warm":
		return newDetectWarm(seed)
	case "ingest":
		w := &ingest{}
		return w, w.init(seed, docRecords)
	case "stream":
		w := &streamOps{}
		return w, w.init(seed, streamRecords)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// nonceDigits is the width of the hex nonce that makes a body unique.
const nonceDigits = 16

// pubsDoc renders a generated pubs document whose first author holds a
// fixed-width nonce, and returns the nonce's offset. The parser drops
// comments, so a nonce that makes a body unique has to sit in the tree;
// an author is neither a watermark target nor a key, so every nonce
// leaves the work of an op unchanged.
func pubsDoc(records int, seed int64) (doc []byte, nonceAt int, err error) {
	ds := datagen.Publications(datagen.PubConfig{Books: records, Seed: seed})
	authors := xmltree.DescendantsNamed(ds.Doc, "author")
	if len(authors) == 0 || len(authors[0].Children) != 1 {
		return nil, 0, fmt.Errorf("pubs document has no plain author to hold the nonce")
	}
	const marker = "nonce-"
	authors[0].Children[0].Value = marker + strings.Repeat("0", nonceDigits)
	var buf bytes.Buffer
	if err := xmltree.Serialize(&buf, ds.Doc, xmltree.SerializeOptions{Indent: "  "}); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), bytes.Index(buf.Bytes(), []byte(marker)) + len(marker), nil
}

// setNonce writes n as fixed-width hex at doc[at:].
func setNonce(doc []byte, at int, n uint64) {
	const hexDigits = "0123456789abcdef"
	for i := nonceDigits - 1; i >= 0; i-- {
		doc[at+i] = hexDigits[n&15]
		n >>= 4
	}
}

// ownerConfig is the core configuration the server compiles for a pubs
// owner, for the replay.
func ownerConfig(o owner) core.Config {
	ds := datagen.Publications(datagen.PubConfig{Books: 1})
	return core.Config{
		Key:      []byte(o.key),
		Mark:     wmark.FromText(o.mark),
		Schema:   ds.Schema,
		Catalog:  ds.Catalog,
		Identity: identity.Options{Targets: ds.Targets},
	}
}

// suspect is the replay's copy of what the server holds for one suspect
// document: the owner's config, the parsed tree and its index (when
// cached), and each receipt's records and compiled plan, newest first as
// the handler tries them.
type suspect struct {
	cfg     core.Config
	doc     *xmltree.Node
	ix      *index.Index
	records [][]core.QueryRecord
	plans   []*core.DecodePlan
}

// newSuspect parses body and compiles the owner's receipts.
func newSuspect(b *bench, o owner, body []byte) (*suspect, error) {
	recs, err := b.file.ListReceipts(o.id)
	if err != nil {
		return nil, err
	}
	cfg := ownerConfig(o)
	var records [][]core.QueryRecord
	var plans []*core.DecodePlan
	for _, r := range slices.Backward(recs) {
		p, err := core.CompileDecodePlan(cfg, r.Records, nil)
		if err != nil {
			return nil, err
		}
		records, plans = append(records, r.Records), append(plans, p)
	}
	doc, err := xmltree.ParseBytes(body, xmltree.ParseOptions{})
	if err != nil {
		return nil, err
	}
	return &suspect{cfg: cfg, doc: doc, ix: index.New(doc), records: records, plans: plans}, nil
}

// embed sends body to /v1/embed and returns the marked copy, which stays
// valid until c's next request.
func embed(c *client, o *owner, body []byte) ([]byte, error) {
	c.post("/v1/embed", o.query, o, body, c.out[0])
	if c.out[0].code != http.StatusOK {
		return nil, fmt.Errorf("embed: status %d: %s", c.out[0].code, bytes.TrimSpace(c.out[0].body.Bytes()))
	}
	return c.out[0].body.Bytes(), nil
}

// detectWarm re-detects each tenant's one marked copy: every request
// hits the doc cache and the plan cache and tries one receipt.
type detectWarm struct {
	owners   []owner
	docs     [][]byte // unmarked inputs
	marked   [][]byte // marked copies, from set-up
	suspects []*suspect
}

func newDetectWarm(seed int64) (*detectWarm, error) {
	w := &detectWarm{}
	for i := range warmTenants {
		doc, _, err := pubsDoc(docRecords, seed*100+int64(i))
		if err != nil {
			return nil, err
		}
		w.owners = append(w.owners, newOwner(fmt.Sprintf("warm%d", i), fmt.Sprintf("key-%d-%d", seed, i), mark))
		w.docs = append(w.docs, doc)
	}
	return w, nil
}

// rounds: a set-up of four embeds and four detects takes about 0.25 s,
// so a brief stall of the host moves one by a lot; the median of twenty,
// 5 s in all, is steady.
func (w *detectWarm) rounds() int { return 20 }

func (w *detectWarm) setup(b *bench) error {
	c := b.clients[0]
	w.marked = w.marked[:0]
	for i := range w.owners {
		o := &w.owners[i]
		if err := b.register(*o); err != nil {
			return err
		}
		m, err := embed(c, o, w.docs[i])
		if err != nil {
			return err
		}
		w.marked = append(w.marked, bytes.Clone(m))
	}
	for i := range w.owners {
		w.detect(c, i)
		if err := c.readVerdict(c.out[0]); err != nil {
			return err
		}
		if !c.verdict.Detected {
			return fmt.Errorf("set-up detect of %s's marked copy: not detected", w.owners[i].id)
		}
	}
	return nil
}

func (w *detectWarm) op(b *bench, c *client, _ int64) error {
	w.detect(c, c.rng.IntN(len(w.owners)))
	return nil
}

// detect sends tenant t's marked copy to /v1/detect.
func (w *detectWarm) detect(c *client, t int) {
	c.last.suspect = t
	c.post("/v1/detect", w.owners[t].query, &w.owners[t], w.marked[t], c.out[0])
}

func (w *detectWarm) check(c *client) error {
	if err := c.readVerdict(c.out[0]); err != nil {
		return err
	}
	v := c.verdict
	if !v.Detected || v.ReceiptsTried != 1 || !v.CacheHit {
		return fmt.Errorf("detect-warm: got detected=%t receipts_tried=%d cache_hit=%t, want true 1 true", v.Detected, v.ReceiptsTried, v.CacheHit)
	}
	c.last.cacheHit, c.last.tried = v.CacheHit, v.ReceiptsTried
	return nil
}

func (w *detectWarm) prepareReplay(b *bench) error {
	w.suspects = w.suspects[:0]
	for i, o := range w.owners {
		s, err := newSuspect(b, o, w.marked[i])
		if err != nil {
			return err
		}
		w.suspects = append(w.suspects, s)
	}
	return nil
}

func (w *detectWarm) replay(b *bench, c *client) {
	t := c.last.suspect
	replayDetect(b, c, w.marked[t], c.out[0].body.Bytes(), w.suspects[t])
}

// ingest embeds a never-seen document and detects the returned copy by
// its receipt: a registry append with fsync, then a doc-cache miss that
// parses, indexes, compiles a plan and evicts one cached document.
type ingest struct {
	owner   owner
	base    []byte
	nonceAt int
	cfg     core.Config
}

func (w *ingest) init(seed int64, records int) error {
	var err error
	w.base, w.nonceAt, err = pubsDoc(records, seed*100)
	w.owner = newOwner("ingest", fmt.Sprintf("key-%d", seed), mark)
	w.cfg = ownerConfig(w.owner)
	return err
}

// rounds: a set-up of docCacheEntries ops takes about 4.5 s, each op a
// sample of its own, so three set-ups give a steady median.
func (w *ingest) rounds() int { return 3 }

// setup runs ops until the doc cache holds docCacheEntries documents,
// so every timed detect evicts one.
func (w *ingest) setup(b *bench) error {
	if err := b.register(w.owner); err != nil {
		return err
	}
	err := b.parallel(docCacheEntries, func(c *client) error {
		if err := w.op(b, c, b.nextOp.Add(1)); err != nil {
			return err
		}
		return w.check(c)
	})
	if err != nil {
		return err
	}
	m, err := b.scrape()
	if err != nil {
		return err
	}
	if m[docEntries] != docCacheEntries || m[docEvictions] != 0 {
		return fmt.Errorf("ingest set-up: doc cache holds %v entries after %v evictions, want %d after 0", m[docEntries], m[docEvictions], docCacheEntries)
	}
	return nil
}

func (w *ingest) op(b *bench, c *client, id int64) error {
	if c.doc == nil {
		c.doc = bytes.Clone(w.base)
	}
	setNonce(c.doc, w.nonceAt, uint64(id))
	e := c.out[0]
	c.post("/v1/embed", w.owner.query, &w.owner, c.doc, e)
	rid := e.hdr.Get("X-Wmxml-Receipt")
	if e.code != http.StatusOK || rid == "" {
		return fmt.Errorf("ingest embed: status %d, receipt %q: %s", e.code, rid, bytes.TrimSpace(e.body.Bytes()))
	}
	c.post("/v1/detect", w.owner.query+"&receipt="+rid, &w.owner, e.body.Bytes(), c.out[1])
	return nil
}

func (w *ingest) check(c *client) error {
	if err := c.readVerdict(c.out[1]); err != nil {
		return err
	}
	v := c.verdict
	if !v.Detected || v.CacheHit {
		return fmt.Errorf("ingest detect: got detected=%t cache_hit=%t, want true false", v.Detected, v.CacheHit)
	}
	c.last.cacheHit, c.last.tried = v.CacheHit, v.ReceiptsTried
	return nil
}

func (w *ingest) prepareReplay(*bench) error { return nil }

// replay re-runs the embed (body read and hash, parse, index, embed,
// serialize) and then the detect of the returned copy.
func (w *ingest) replay(b *bench, c *client) {
	t := c.tr
	replayBody(t, c.doc)
	doc, ix := replayParse(t, c.doc)
	if doc == nil {
		return
	}
	var res *core.EmbedResult
	t.layer("core.embed", func() { res, _ = core.EmbedIndexed(doc, w.cfg, ix) })
	if res == nil {
		return
	}
	c.scratch.Reset()
	t.layer("xmltree.serialize", func() { xmltree.Serialize(&c.scratch, doc, xmltree.SerializeOptions{Indent: "  "}) })
	replayDetect(b, c, c.out[0].body.Bytes(), c.out[1].body.Bytes(), &suspect{cfg: w.cfg, records: [][]core.QueryRecord{res.Records}})
}

// streamOps sends a never-seen large document through the streaming
// embed and detects the output by the receipt from the trailer: the
// chunk tokenizer and pipeline run, the doc cache is bypassed.
type streamOps struct {
	ingest
}

// rounds: a set-up of one op per client takes about 1.1 s; the median
// of five is steady.
func (w *streamOps) rounds() int { return 5 }

func (w *streamOps) setup(b *bench) error {
	if err := b.register(w.owner); err != nil {
		return err
	}
	return b.parallel(len(b.clients), func(c *client) error {
		if err := w.op(b, c, b.nextOp.Add(1)); err != nil {
			return err
		}
		return w.check(c)
	})
}

func (w *streamOps) op(b *bench, c *client, id int64) error {
	if c.doc == nil {
		c.doc = bytes.Clone(w.base)
	}
	setNonce(c.doc, w.nonceAt, uint64(id))
	e := c.out[0]
	c.post("/v1/embed", w.owner.query+"&mode=stream", &w.owner, c.doc, e)
	rid, serr := e.hdr.Get("X-Wmxml-Receipt"), e.hdr.Get("X-Wmxml-Stream-Error")
	if e.code != http.StatusOK || rid == "" || serr != "" {
		return fmt.Errorf("stream embed: status %d, receipt trailer %q, stream error %q", e.code, rid, serr)
	}
	c.post("/v1/detect", w.owner.query+"&mode=stream&receipt="+rid, &w.owner, e.body.Bytes(), c.out[1])
	return nil
}

func (w *streamOps) check(c *client) error {
	if err := c.readVerdict(c.out[1]); err != nil {
		return err
	}
	if serr := c.out[1].hdr.Get("X-Wmxml-Stream-Error"); serr != "" {
		return fmt.Errorf("stream detect: stream error %q", serr)
	}
	v := c.verdict
	if !v.Detected || v.Chunks <= 1 {
		return fmt.Errorf("stream detect: got detected=%t chunks=%d, want true and more than 1", v.Detected, v.Chunks)
	}
	// Streamed detects run no plan decodes, so none count as decodes.
	c.last.cacheHit, c.last.tried = false, 0
	return nil
}

func (w *streamOps) replay(b *bench, c *client) {
	replayStream(c, w.cfg, c.doc, c.out[0].body.Bytes(), c.out[1].body.Bytes())
}
