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
//     error trailer as a failed request).
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
	"slices"
	"strings"
	"time"

	"wmxml/internal/core"
	"wmxml/internal/pipeline"
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

// streamHTTPErr maps a streaming failure to a status: parse problems in
// the request body are the client's (400), everything else is 422. The
// cause stays in the chain, so a body over MaxStreamBytes still reaches
// writeErr as *http.MaxBytesError (413); it is counted here, on both
// stream routes, whether or not output has started.
func (s *Server) streamHTTPErr(err error) *httpError {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.met.tooLarge.Inc()
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
func (s *Server) handleEmbedStream(w http.ResponseWriter, r *http.Request, rt *ownerRuntime, ownerID string) {
	// Refuse up front when this owner's document type cannot actually
	// chunk: the library would fall back to the in-memory parse, which
	// must never happen on a MaxStreamBytes-sized body — that is the
	// OOM this endpoint exists to prevent.
	reason, err := stream.EmbedFallbackReason(rt.cfg, s.streamOptions())
	if err != nil {
		s.writeErr(w, r, errf(http.StatusUnprocessableEntity, "stream: %v", err))
		return
	}
	if reason != "" {
		s.writeErr(w, r, errf(http.StatusUnprocessableEntity, "owner %q cannot stream (%s); use the buffered endpoint", ownerID, reason))
		return
	}
	if err := s.acquire(r); err != nil {
		s.writeErr(w, r, err)
		return
	}
	defer s.release()

	// The marked document streams out while the input is still being
	// read; HTTP/1.x servers close the request body on the first
	// response write unless full-duplex is enabled (HTTP/2 allows it
	// natively — the error there is ignorable).
	_ = http.NewResponseController(w).EnableFullDuplex()

	digest := sha256.New()
	body := io.TeeReader(limitBody(w, r, s.opts.MaxStreamBytes), digest)

	h := w.Header()
	h.Set("Content-Type", "application/xml")
	h.Set("Trailer", "X-Wmxml-Receipt, X-Wmxml-Carriers, X-Wmxml-Values-Written, X-Wmxml-Stream-Chunks, X-Wmxml-Stream-Error")
	lw := &latchWriter{w: w}

	out := rt.eng.EmbedReader(r.Context(), pipeline.StreamEmbedJob{
		ID:      "stream-embed",
		In:      body,
		Out:     lw,
		Options: s.streamOptions(),
	})
	if out.Err != nil {
		herr := s.streamHTTPErr(out.Err)
		if !lw.wrote {
			s.writeErr(w, r, herr)
			return
		}
		// Output already started: the status is spoken for. Truncate and
		// report through the trailer.
		h.Set("X-Wmxml-Stream-Error", out.Err.Error())
		return
	}

	// The spooled digest binds the receipt to the exact bytes received,
	// under the owner configuration that marked them — the streaming
	// analogue of the buffered endpoint's body-hash receipt id.
	idh := sha256.New()
	fmt.Fprintf(idh, "stream\x1f%s\x1f%s\x1f%s\x1f%d\x1f%x\x1f", rt.owner.ID, rt.owner.Key, rt.owner.Mark, rt.owner.Gamma, digest.Sum(nil))
	receiptID := "s-" + hex.EncodeToString(idh.Sum(nil))[:32]
	rec := registry.Receipt{
		ID: receiptID, Owner: ownerID, Doc: r.URL.Query().Get("doc"),
		CreatedUnix:    time.Now().Unix(),
		Records:        out.Result.Records,
		BandwidthUnits: out.Result.Bandwidth.Units,
		Carriers:       out.Result.Carriers,
		ValuesWritten:  out.Result.Embedded,
	}
	if err := s.reg.AddReceipt(rec); err != nil {
		if !errors.Is(err, registry.ErrDuplicate) {
			h.Set("X-Wmxml-Stream-Error", fmt.Sprintf("store receipt: %v", err))
			return
		}
		stored, gerr := s.reg.GetReceipt(ownerID, receiptID)
		if gerr != nil || !slices.Equal(stored.Records, rec.Records) {
			h.Set("X-Wmxml-Stream-Error", fmt.Sprintf("receipt id collision on %q", receiptID))
			return
		}
	}
	s.met.streamEmbeds.Inc()
	if out.Stream != nil {
		s.met.streamChunks.Add(uint64(out.Stream.Chunks))
		h.Set("X-Wmxml-Stream-Chunks", fmt.Sprint(out.Stream.Chunks))
	}
	h.Set("X-Wmxml-Receipt", receiptID)
	h.Set("X-Wmxml-Carriers", fmt.Sprint(out.Result.Carriers))
	h.Set("X-Wmxml-Values-Written", fmt.Sprint(out.Result.Embedded))
	if !lw.wrote {
		// Legal empty-output case does not exist (a parsed document has a
		// root), but never leave the status unwritten.
		w.WriteHeader(http.StatusOK)
	}
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
func (s *Server) handleDetectStream(w http.ResponseWriter, r *http.Request, rt *ownerRuntime, ownerID string, blind bool) {
	start := time.Now()
	if err := s.acquire(r); err != nil {
		s.writeErr(w, r, err)
		return
	}
	defer s.release()

	resp := streamDetectResponse{Streamed: true}
	resp.Owner = ownerID
	resp.Mode = "stream-blind"

	var records []registry.Receipt
	if !blind {
		resp.Mode = "stream"
		wantReceipt := r.URL.Query().Get("receipt")
		if wantReceipt != "" {
			rec, err := s.reg.GetReceipt(ownerID, wantReceipt)
			if err != nil {
				s.writeErr(w, r, errf(http.StatusNotFound, "owner %q has no receipt %q", ownerID, wantReceipt))
				return
			}
			records = []registry.Receipt{rec}
		} else {
			recs, err := s.reg.ListReceipts(ownerID)
			if err != nil {
				s.writeErr(w, r, err)
				return
			}
			if len(recs) == 0 {
				s.writeErr(w, r, errf(http.StatusConflict, "owner %q has no receipts; embed first or use mode=stream-blind", ownerID))
				return
			}
			// One pass over the body allows one query set; the newest
			// embedding is the likeliest source. Clients disputing older
			// receipts pass ?receipt=ID explicitly.
			records = []registry.Receipt{recs[len(recs)-1]}
		}
	}

	// Same guard as streamed embed: never take the in-memory fallback
	// on a stream-sized body.
	var jobRecords []core.QueryRecord
	if !blind {
		jobRecords = records[0].Records
	}
	reason, err := stream.DetectFallbackReason(rt.cfg, jobRecords, nil, s.streamOptions())
	if err != nil {
		s.writeErr(w, r, errf(http.StatusUnprocessableEntity, "stream: %v", err))
		return
	}
	if reason != "" {
		s.writeErr(w, r, errf(http.StatusUnprocessableEntity, "owner %q cannot stream (%s); use the buffered endpoint", ownerID, reason))
		return
	}

	digest := sha256.New()
	body := io.TeeReader(limitBody(w, r, s.opts.MaxStreamBytes), digest)

	job := pipeline.StreamDetectJob{ID: "stream-detect", In: body, Options: s.streamOptions()}
	if !blind {
		job.Records = jobRecords
		resp.Receipt = records[0].ID
	}
	out := rt.eng.DetectReader(r.Context(), job)
	if out.Err != nil {
		s.writeErr(w, r, s.streamHTTPErr(out.Err))
		return
	}
	resp.ReceiptsTried = len(records)
	resp.Detected = out.Result.Detected
	resp.MatchFraction = out.Result.MatchFraction
	resp.Coverage = out.Result.Coverage
	resp.Sigma = out.Result.Sigma()
	resp.FalsePositiveRate = out.Result.FalsePositiveRate()
	resp.RecoveredText = out.Result.Recovered.Text()
	resp.QueriesRun = out.Result.QueriesRun
	resp.QueryMisses = out.Result.QueryMisses
	resp.SuspectSHA256 = hex.EncodeToString(digest.Sum(nil))
	if out.Stream != nil {
		resp.Chunks = out.Stream.Chunks
		resp.Streamed = out.Stream.Streamed
		s.met.streamChunks.Add(uint64(out.Stream.Chunks))
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	s.met.streamDetects.Inc()
	s.met.detects.Inc()
	if resp.Detected {
		s.met.detected.Inc()
	}
	writeJSON(w, http.StatusOK, resp)
}
