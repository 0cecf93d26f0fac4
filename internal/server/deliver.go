package server

// Delivery endpoints: the patch-plan fast path for handing out
// fingerprinted copies.
//
// POST /v1/deliver/plan compiles the owner's delivery plan for one
// document — a single parse+select+capacity pass whose result (byte
// offsets into the canonical serialization plus per-bit alternative
// bytes) serves every recipient of that document. The plan and the
// canonical bytes land in the registry keyed by the canonical digest.
//
// POST /v1/deliver splices one recipient's copy. With ?digest=D and an
// empty body it is pure splice work — no parsing, no worker slot, tens
// of microseconds: the stored plan is fetched (or hit in the bound-plan
// cache), the recipient's payload is derived from the owner key, and
// the response is the canonical bytes with each mark site's bytes
// swapped. With a document body and no digest the server canonicalizes
// the body, reuses a stored plan when the digest matches, and compiles
// one otherwise — so the first delivery of a document pays the compile
// and every later one splices. With ?mode=stream&digest=D the body is
// the canonical document streamed at any size up to MaxStreamBytes and
// the splice runs in constant memory (the digest is verified as the
// stream drains; a mismatch aborts the response mid-body, so clients
// must treat a truncated response as poisoned).
//
// Plans are bound to the owner configuration they were compiled under.
// After a key, mark, gamma or spec change, stored plans describe the OLD
// embedding; recompile (POST the document to /v1/deliver/plan again —
// same digest, new plan) before delivering. A geometry change surfaces
// as a payload-length error; a same-geometry rotation does not, which
// is exactly the idempotence embedding itself has. Delivery receipt ids
// hash the plan a copy was spliced from, so a delivery from a stale
// plan and one after the recompile store separate receipts, each
// describing its own copy.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"net/http"
	"time"

	"wmxml/internal/deliver"
	"wmxml/internal/obs"
	"wmxml/internal/registry"
	"wmxml/internal/xmltree"
)

// canonSerializeOpts is the canonical serialization every server-side
// plan is compiled against — the same shape /v1/embed and
// /v1/fingerprint emit, so a spliced copy is byte-identical to a full
// fingerprint of the same body.
var canonSerializeOpts = xmltree.SerializeOptions{Indent: "  "}

// boundKey addresses the server's bound-plan cache: Bind results
// (plan JSON decoded and offsets verified against the canonical bytes),
// so the per-delivery work is only the splice. Any evicted entry is one
// registry fetch away.
type boundKey struct{ owner, digest string }

// boundPlan is a bound delivery plan with the sha256 of its JSON
// encoding, the content its delivery receipt ids hash. A plan compiled
// before a re-registration and its recompile splice different copies
// of one document, so their receipts must not share an id.
type boundPlan struct {
	*deliver.Bound
	sum []byte
}

// bindPlan binds plan (encoded as planJSON) to its canonical bytes and
// caches the result under (owner, plan digest).
func (s *Server) bindPlan(ownerID string, plan *deliver.Plan, planJSON, canonical []byte) (*boundPlan, error) {
	b, err := plan.Bind(canonical)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(planJSON)
	bp := &boundPlan{Bound: b, sum: sum[:]}
	s.bound.Put(boundKey{ownerID, plan.Digest}, bp, 0)
	return bp, nil
}

// planResponse acknowledges a plan compile.
type planResponse struct {
	Owner          string `json:"owner"`
	Digest         string `json:"digest"`
	Doc            string `json:"doc,omitempty"`
	DocLen         int    `json:"doc_len"`
	PayloadBits    int    `json:"payload_bits"`
	Sites          int    `json:"sites"`
	CarrierUnits   int    `json:"carrier_units"`
	BandwidthUnits int    `json:"bandwidth_units"`
}

// handleDeliverPlan compiles and stores the delivery plan for the XML
// body under the owner's key — the one full-cost pass that makes every
// subsequent /v1/deliver of this document a splice.
func (s *Server) handleDeliverPlan(w http.ResponseWriter, r *http.Request) error {
	tr := obs.FromContext(r.Context())
	tr.SetOp("deliver_plan")
	ownerID := r.URL.Query().Get("owner")
	rt, err := s.runtimeFor(r, ownerID)
	if err != nil {
		return err
	}
	body, err := s.admit(w, r)
	if err != nil {
		return err
	}
	defer s.release()
	doc, err := s.parseDoc(body, tr)
	if err != nil {
		return err
	}
	csp := tr.StartSpan("plan_compile")
	plan, canonical, err := deliver.Compile(doc, rt.fp.PlanConfig(), canonSerializeOpts)
	csp.End()
	if err != nil {
		return errf(http.StatusUnprocessableEntity, "compile plan: %v", err)
	}
	planJSON, err := plan.Marshal()
	if err != nil {
		return errf(http.StatusInternalServerError, "encode plan: %v", err)
	}
	rec := registry.PlanRecord{
		Owner:       ownerID,
		Digest:      plan.Digest,
		Doc:         r.URL.Query().Get("doc"),
		CreatedUnix: time.Now().Unix(),
		Canonical:   canonical,
		Plan:        planJSON,
	}
	if err := s.reg.PutPlan(rec); err != nil {
		return errf(http.StatusInternalServerError, "store plan: %v", err)
	}
	// Caching is best effort: a plan that does not bind here is refused
	// again, with its error, when a delivery loads it.
	_, _ = s.bindPlan(ownerID, plan, planJSON, canonical)
	s.met.planCompiles.Inc()
	carriers := 0
	for _, u := range plan.Units {
		if u.Wrote[0]+u.Wrote[1] > 0 {
			carriers++
		}
	}
	writeJSON(w, http.StatusOK, planResponse{
		Owner:          ownerID,
		Digest:         plan.Digest,
		Doc:            rec.Doc,
		DocLen:         plan.DocLen,
		PayloadBits:    plan.PayloadBits,
		Sites:          len(plan.Sites),
		CarrierUnits:   carriers,
		BandwidthUnits: plan.Bandwidth.Units,
	})
	return nil
}

// boundFor resolves (owner, digest) to a bound plan: cache first, then
// the registry record (validated and bound on the way in).
func (s *Server) boundFor(ownerID, digest string) (*boundPlan, error) {
	if b, ok := s.bound.Get(boundKey{ownerID, digest}); ok {
		return b, nil
	}
	rec, err := s.reg.GetPlan(ownerID, digest)
	if err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			return nil, errf(http.StatusNotFound, "owner %q has no plan for digest %s; POST the document to /v1/deliver/plan first", ownerID, digest)
		}
		return nil, err
	}
	if err := rec.Validate(); err != nil {
		return nil, errf(http.StatusInternalServerError, "stored plan: %v", err)
	}
	plan, err := deliver.UnmarshalPlan(rec.Plan)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "stored plan: %v", err)
	}
	b, err := s.bindPlan(ownerID, plan, rec.Plan, rec.Canonical)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "stored plan: %v", err)
	}
	return b, nil
}

// handleDeliver splices one recipient's fingerprinted copy from a
// delivery plan. See the package comment for the three request shapes
// (stored digest, document body, mode=stream); they share everything up
// to the splice. The copy is recorded (recipient, receipt, headers)
// before any of it is written, so a registry failure is still a clean
// error response in both the buffered and the streamed shape.
func (s *Server) handleDeliver(w http.ResponseWriter, r *http.Request) error {
	tr := obs.FromContext(r.Context())
	tr.SetOp("deliver")
	ownerID := r.URL.Query().Get("owner")
	rt, err := s.runtimeFor(r, ownerID)
	if err != nil {
		return err
	}
	rcpt, err := recipientOf(r, ownerID)
	if err != nil {
		return err
	}
	digest := r.URL.Query().Get("digest")
	stream := r.URL.Query().Get("mode") == "stream"
	var b *boundPlan
	switch {
	case digest != "":
		// Pure splice: no body parse, no worker slot.
		b, err = s.cachedBound(tr, ownerID, digest)
	case stream:
		return errf(http.StatusBadRequest, "mode=stream requires the digest query parameter (compile the plan first)")
	default:
		b, err = s.bodyBound(w, r, rt, ownerID)
	}
	if err != nil {
		return err
	}

	plan := b.Plan()
	payload := rt.fp.Payload(rcpt.ID)
	res, err := plan.Receipt(payload)
	if err != nil {
		return errf(http.StatusConflict, "plan does not fit this owner's configuration (recompile after a rotation): %v", err)
	}
	if err := s.recordCopy(w, r, rt, "d", rcpt, b.sum, res); err != nil {
		return err
	}
	h := w.Header()
	h.Set("Content-Type", "application/xml")
	h.Set("X-Wmxml-Digest", plan.Digest)
	if stream {
		// The body is the canonical document (any size up to
		// MaxStreamBytes), spliced in constant memory while it is still
		// being read; HTTP/1.x servers close the request body on the
		// first response write unless full-duplex is enabled (HTTP/2
		// allows it natively — the error there is ignorable). The plan's
		// digest check runs as the stream drains: a mismatch, or a body
		// over MaxStreamBytes (a 413 counted like the other stream
		// routes'), fails the request after the status line is long
		// gone, so instrument() cuts the connection — streaming clients
		// must discard output on a short read.
		_ = http.NewResponseController(w).EnableFullDuplex()
		w.WriteHeader(http.StatusOK)
		ssp := tr.StartSpan("splice")
		err = plan.ApplyReader(w, s.capBody(r), payload)
		ssp.End()
		if err != nil {
			return s.streamErr(w, r, err)
		}
	} else {
		// Plan.Receipt accepted the payload length, the one thing
		// AppendCopy checks, so the splice cannot fail.
		ssp := tr.StartSpan("splice")
		out, _ := b.AppendCopy(nil, payload)
		ssp.End()
		w.WriteHeader(http.StatusOK)
		w.Write(out)
	}
	s.met.delivers.Inc()
	return nil
}

// cachedBound is boundFor under a "cache" span, counted as a plan hit.
func (s *Server) cachedBound(tr *obs.Trace, ownerID, digest string) (*boundPlan, error) {
	csp := tr.StartSpan("cache")
	b, err := s.boundFor(ownerID, digest)
	if err != nil {
		csp.EndNote("miss")
		return nil, err
	}
	csp.EndNote("hit")
	s.met.planHits.Inc()
	return b, nil
}

// bodyBound canonicalizes a document body and returns its bound plan:
// the stored plan when one matches the canonical digest, a fresh compile
// (stored and cached) otherwise. The parse and compile hold a worker
// slot.
func (s *Server) bodyBound(w http.ResponseWriter, r *http.Request, rt *ownerRuntime, ownerID string) (*boundPlan, error) {
	tr := obs.FromContext(r.Context())
	body, err := s.admit(w, r)
	if err != nil {
		return nil, err
	}
	defer s.release()
	doc, err := s.parseDoc(body, tr)
	if err != nil {
		return nil, err
	}
	var canon bytes.Buffer
	if err := xmltree.Serialize(&canon, doc, canonSerializeOpts); err != nil {
		return nil, errf(http.StatusUnprocessableEntity, "canonicalize: %v", err)
	}
	if b, err := s.boundFor(ownerID, deliver.DigestBytes(canon.Bytes())); err == nil {
		s.met.planHits.Inc()
		return b, nil
	}
	csp := tr.StartSpan("plan_compile")
	plan, canonical, err := deliver.Compile(doc, rt.fp.PlanConfig(), canonSerializeOpts)
	csp.End()
	if err != nil {
		return nil, errf(http.StatusUnprocessableEntity, "compile plan: %v", err)
	}
	planJSON, err := plan.Marshal()
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "encode plan: %v", err)
	}
	// Storing the plan is best effort: this delivery splices from the
	// bound plan either way, and a later one recompiles on a miss.
	_ = s.reg.PutPlan(registry.PlanRecord{
		Owner: ownerID, Digest: plan.Digest, Doc: r.URL.Query().Get("doc"),
		CreatedUnix: time.Now().Unix(), Canonical: canonical, Plan: planJSON,
	})
	b, err := s.bindPlan(ownerID, plan, planJSON, canonical)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "bind plan: %v", err)
	}
	s.met.planCompiles.Inc()
	return b, nil
}
