package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"

	"wmxml/internal/core"
	"wmxml/internal/index"
	"wmxml/internal/stream"
	"wmxml/internal/xmltree"
)

// maxBody is the daemon's default request body cap.
const maxBody = 32 << 20

// detectVerdict mirrors the service's buffered detect verdict, so the
// replay encodes the same fields the handler did.
type detectVerdict struct {
	Owner             string  `json:"owner"`
	Mode              string  `json:"mode"`
	Receipt           string  `json:"receipt,omitempty"`
	ReceiptsTried     int     `json:"receipts_tried"`
	Detected          bool    `json:"detected"`
	MatchFraction     float64 `json:"match_fraction"`
	Coverage          float64 `json:"coverage"`
	Sigma             float64 `json:"sigma"`
	FalsePositiveRate float64 `json:"false_positive_rate"`
	RecoveredText     string  `json:"recovered_text,omitempty"`
	QueriesRun        int     `json:"queries_run"`
	QueryMisses       int     `json:"query_misses"`
	CacheHit          bool    `json:"cache_hit"`
	ElapsedMS         float64 `json:"elapsed_ms"`
}

// streamVerdict mirrors the streamed detect verdict.
type streamVerdict struct {
	detectVerdict
	Streamed      bool   `json:"streamed"`
	Chunks        int    `json:"chunks"`
	SuspectSHA256 string `json:"suspect_sha256"`
}

// replayBody re-reads a request body as the handler's readBody does and
// hashes it as the doc-cache key and the receipt id do.
func replayBody(t *clientTrace, body []byte) {
	t.layer("server.body_read", func() { _, _ = io.ReadAll(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBody)) })
	t.layer("server.body_sha256", func() { _ = sha256.Sum256(body) })
}

// replayParse parses and indexes a body; nil when it does not parse.
func replayParse(t *clientTrace, body []byte) (*xmltree.Node, *index.Index) {
	var doc *xmltree.Node
	t.layer("xmltree.parse", func() { doc, _ = xmltree.ParseBytes(body, xmltree.ParseOptions{}) })
	if doc == nil {
		return nil, nil
	}
	var ix *index.Index
	t.layer("index.build", func() { ix = index.New(doc) })
	return doc, ix
}

// replayDetect re-runs a buffered detect of body: the body read and
// hash; the parse and index on a doc-cache miss; per receipt tried, the
// plan compile while the counters say each detect compiled that many
// plans, then one decode and vote; and the verdict encode. s holds the
// cached document and plans, or only the config and records on a miss.
func replayDetect(b *bench, c *client, body, verdict []byte, s *suspect) {
	t := c.tr
	replayBody(t, body)
	doc, ix := s.doc, s.ix
	if !c.last.cacheHit {
		if doc, ix = replayParse(t, body); doc == nil {
			return
		}
	}
	for i := range min(c.last.tried, len(s.records)) {
		var p *core.DecodePlan
		if i < b.compiles {
			t.layer("core.plan_compile", func() { p, _ = core.CompileDecodePlan(s.cfg, s.records[i], nil) })
		} else if i < len(s.plans) {
			p = s.plans[i]
		}
		if p == nil {
			continue
		}
		var dec *core.DecodeResult
		t.layer("core.decode", func() { dec = p.Decode(doc, ix) })
		t.layer("core.vote", func() { _ = core.ScoreDecode(dec, p.Config()) })
	}
	replayEncode(t, verdict, &detectVerdict{}, &c.scratch)
}

// replayStream re-runs a streamed embed of in and a streamed detect of
// its output against the embed's records, each with the body hash the
// handler tees off the request, and the verdict encode.
func replayStream(c *client, cfg core.Config, in, marked, verdict []byte) {
	t := c.tr
	ctx := context.Background()
	t.layer("server.body_sha256", func() { _ = sha256.Sum256(in) })
	var res *stream.EmbedResult
	c.scratch.Reset()
	t.layer("stream.embed", func() { res, _ = stream.Embed(ctx, bytes.NewReader(in), &c.scratch, cfg, stream.Options{}) })
	if res == nil {
		return
	}
	t.layer("server.body_sha256", func() { _ = sha256.Sum256(marked) })
	t.layer("stream.detect", func() { _, _, _ = stream.Detect(ctx, bytes.NewReader(marked), cfg, res.Records, nil, stream.Options{}) })
	replayEncode(t, verdict, &streamVerdict{}, &c.scratch)
}

// replayEncode re-encodes the op's verdict the way the handler's
// writeJSON does.
func replayEncode(t *clientTrace, verdict []byte, v any, buf *bytes.Buffer) {
	if json.Unmarshal(verdict, v) != nil {
		return
	}
	buf.Reset()
	t.layer("server.response_encode", func() {
		enc := json.NewEncoder(buf)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	})
}
