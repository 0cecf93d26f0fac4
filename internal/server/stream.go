package server

// Streaming endpoints: POST /v1/embed?mode=stream and
// POST /v1/detect?mode=stream|stream-blind process the request body in
// record chunks with peak memory bounded by chunk size, never document
// size — the path for exports that would blow the in-memory parse or
// the regular body cap.
//
// Differences from the buffered endpoints, by design:
//
//   - The body is never materialized, so the suspect-document cache is
//     bypassed and the body cap is the (much larger) MaxStreamBytes.
//   - The embed response streams while the input is still being read,
//     so the receipt id — derived from a digest spooled off the request
//     body — arrives in HTTP *trailers* (declared up front in the
//     Trailer header), not headers. The stored receipt is identical in
//     shape to a buffered embed's.
//   - A failure after the first response byte cannot change the status
//     code; it is reported in the X-Wmxml-Stream-Error trailer and the
//     output is truncated (invalid XML — clients must treat a non-empty
//     error trailer as a failed request). A panic cuts the connection
//     instead.
//   - Streamed detect runs one receipt (?receipt=ID, or the newest) or
//     blind; sweeping every stored receipt would need one body pass per
//     receipt. The verdict JSON gains streamed/chunks/suspect_sha256
//     fields.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"wmxml/internal/core"
	"wmxml/internal/registry"
	"wmxml/internal/stream"
	"wmxml/internal/xmltree"
)

// streamOptions builds the chunking options from the server knobs.
func (s *Server) streamOptions() stream.Options {
	return stream.Options{
		ChunkSize: s.opts.StreamChunkSize,
		Parse:     xmltree.ParseOptions{MaxDepth: s.opts.MaxDepth},
	}
}

// latchWriter defers any response writing until the first byte, so
// errors raised before output started can still choose the status code.
type latchWriter struct {
	w     http.ResponseWriter
	wrote bool
}

func (lw *latchWriter) Write(p []byte) (int, error) {
	if !lw.wrote {
		lw.wrote = true
		lw.w.WriteHeader(http.StatusOK)
	}
	return lw.w.Write(p)
}

// capReader fails with *http.MaxBytesError past limit bytes. Unlike
// http.MaxBytesReader it never touches the response, so the stream's
// reader goroutine can hit the cap while the handler goroutine writes.
type capReader struct {
	r     io.Reader
	n     int64 // bytes still allowed
	limit int64
	err   error
}

func (c *capReader) Read(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	if int64(len(p)) > c.n+1 {
		p = p[:c.n+1] // one byte past the cap answers whether it is exceeded
	}
	n, err := c.r.Read(p)
	if int64(n) <= c.n {
		c.n -= int64(n)
		c.err = err
		return n, err
	}
	n, c.n = int(c.n), 0
	c.err = &http.MaxBytesError{Limit: c.limit}
	return n, c.err
}

// capBody is the request body of a streaming route, capped at
// MaxStreamBytes.
func (s *Server) capBody(r *http.Request) io.Reader {
	return &capReader{r: r.Body, n: s.opts.MaxStreamBytes, limit: s.opts.MaxStreamBytes}
}

// streamErr maps a streaming failure to a status: parse problems in
// the request body are the client's (400), everything else is 422. The
// cause stays in the chain, so a body over MaxStreamBytes still answers
// 413; it is counted here, on every stream route, whether or not output
// has started. Over the cap the unread rest of the body must not reach
// the next request on this connection: once the stream has returned
// (and with it every stream goroutine), one read through
// http.MaxBytesReader at limit 0, on the handler goroutine, has net/http
// close the connection after the reply. Only that side effect matters,
// so the read's result is dropped.
func (s *Server) streamErr(w http.ResponseWriter, r *http.Request, err error) *httpError {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.met.tooLarge.Inc()
		_, _ = limitBody(w, r, 0).Read(make([]byte, 1))
	}
	if strings.Contains(err.Error(), "xmltree: parse") {
		return errf(http.StatusBadRequest, "parse document: %w", err)
	}
	return errf(http.StatusUnprocessableEntity, "stream: %w", err)
}

// handleEmbedStream watermarks an arbitrarily large XML body chunk by
// chunk, streaming the marked document back while the input is still
// arriving. The receipt id is derived from the spooled body digest and
// returned in the X-Wmxml-Receipt trailer.
func (s *Server) handleEmbedStream(w http.ResponseWriter, r *http.Request, rt *ownerRuntime, ownerID string) error {
	// Refuse up front when this owner's document type cannot actually
	// chunk: the library would fall back to the in-memory parse, which
	// must never happen on a MaxStreamBytes-sized body — that is the
	// OOM this endpoint exists to prevent.
	reason, err := stream.EmbedFallbackReason(rt.cfg)
	if err != nil {
		return errf(http.StatusUnprocessableEntity, "stream: %v", err)
	}
	if reason != "" {
		return errf(http.StatusUnprocessableEntity, "owner %q cannot stream (%s); use the buffered endpoint", ownerID, reason)
	}
	if err := s.acquire(r); err != nil {
		return err
	}
	defer s.release()

	// The marked document streams out while the input is still being
	// read; HTTP/1.x servers close the request body on the first
	// response write unless full-duplex is enabled (HTTP/2 allows it
	// natively — the error there is ignorable).
	_ = http.NewResponseController(w).EnableFullDuplex()

	digest := sha256.New()
	h := w.Header()
	h.Set("Content-Type", "application/xml")
	h.Set("Trailer", "X-Wmxml-Receipt, X-Wmxml-Carriers, X-Wmxml-Values-Written, X-Wmxml-Stream-Chunks, X-Wmxml-Stream-Error")
	lw := &latchWriter{w: w}

	res, err := stream.Embed(r.Context(), io.TeeReader(s.capBody(r), digest), lw, rt.cfg, s.streamOptions())
	if err != nil {
		herr := s.streamErr(w, r, err)
		if !lw.wrote {
			return herr
		}
		// Output already started: the status is spoken for. Truncate and
		// report through the trailer.
		h.Set("X-Wmxml-Stream-Error", err.Error())
		return nil
	}

	// The spooled digest binds the receipt to the exact bytes received,
	// as the buffered endpoint's id binds the body.
	receiptID := deriveReceiptID("s", rt.owner, "", digest.Sum(nil))
	err = s.storeReceipt(registry.Receipt{
		ID: receiptID, Owner: ownerID, Doc: r.URL.Query().Get("doc"),
		CreatedUnix:    time.Now().Unix(),
		Records:        res.Records,
		BandwidthUnits: res.Bandwidth.Units,
		Carriers:       res.Carriers,
		ValuesWritten:  res.Embedded,
	})
	if err != nil {
		h.Set("X-Wmxml-Stream-Error", err.Error())
		return nil
	}
	s.met.streamEmbeds.Inc()
	s.met.streamChunks.Add(uint64(res.Stats.Chunks))
	h.Set("X-Wmxml-Stream-Chunks", fmt.Sprint(res.Stats.Chunks))
	h.Set("X-Wmxml-Receipt", receiptID)
	h.Set("X-Wmxml-Carriers", fmt.Sprint(res.Carriers))
	h.Set("X-Wmxml-Values-Written", fmt.Sprint(res.Embedded))
	if !lw.wrote {
		// Legal empty-output case does not exist (a parsed document has a
		// root), but never leave the status unwritten.
		w.WriteHeader(http.StatusOK)
	}
	return nil
}

// streamDetectResponse is detectResponse plus the streaming fields.
type streamDetectResponse struct {
	detectResponse
	Streamed      bool   `json:"streamed"`
	Chunks        int    `json:"chunks"`
	SuspectSHA256 string `json:"suspect_sha256"`
}

// handleDetectStream detects over an arbitrarily large suspect body in
// record chunks: blind (mode=stream-blind) or against one stored
// receipt (?receipt=ID; defaults to the newest). The parsed-document
// cache is bypassed — nothing is materialized to cache.
func (s *Server) handleDetectStream(w http.ResponseWriter, r *http.Request, rt *ownerRuntime, ownerID string, blind bool) error {
	start := time.Now()
	if err := s.acquire(r); err != nil {
		return err
	}
	defer s.release()

	resp := streamDetectResponse{detectResponse: detectResponse{Owner: ownerID, Mode: "stream-blind"}}

	var records []core.QueryRecord
	if !blind {
		resp.Mode = "stream"
		recs, err := s.detectReceipts(r, ownerID, "stream-blind")
		if err != nil {
			return err
		}
		// One pass over the body allows one query set; the newest
		// embedding is the likeliest source. Clients disputing older
		// receipts pass ?receipt=ID explicitly.
		newest := recs[len(recs)-1]
		records, resp.Receipt, resp.ReceiptsTried = newest.Records, newest.ID, 1
	}

	// Same guard as streamed embed: never take the in-memory fallback
	// on a stream-sized body.
	reason, err := stream.DetectFallbackReason(rt.cfg, records, nil)
	if err != nil {
		return errf(http.StatusUnprocessableEntity, "stream: %v", err)
	}
	if reason != "" {
		return errf(http.StatusUnprocessableEntity, "owner %q cannot stream (%s); use the buffered endpoint", ownerID, reason)
	}

	digest := sha256.New()
	body := io.TeeReader(s.capBody(r), digest)
	var (
		res   *core.DetectResult
		stats stream.Stats
	)
	if blind {
		res, stats, err = stream.DetectBlind(r.Context(), body, rt.cfg, s.streamOptions())
	} else {
		res, stats, err = stream.Detect(r.Context(), body, rt.cfg, records, nil, s.streamOptions())
	}
	if err != nil {
		return s.streamErr(w, r, err)
	}
	resp.SuspectSHA256 = hex.EncodeToString(digest.Sum(nil))
	resp.Chunks = stats.Chunks
	resp.Streamed = stats.Streamed
	s.met.streamChunks.Add(uint64(stats.Chunks))
	s.met.streamDetects.Inc()
	s.verdict(&resp.detectResponse, res, start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}
