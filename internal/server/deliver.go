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
// After a key, mark or gamma rotation, stored plans describe the OLD
// embedding; recompile (POST the document to /v1/deliver/plan again —
// same digest, new plan) before delivering. A geometry change surfaces
// as a payload-length error; a same-geometry rotation does not, which
// is exactly the idempotence embedding itself has.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"crypto/sha256"
	"encoding/hex"

	"wmxml/internal/core"
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
	if b, berr := plan.Bind(canonical); berr == nil {
		s.bound.Put(boundKey{ownerID, plan.Digest}, b, 0)
	}
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
func (s *Server) boundFor(ownerID, digest string) (*deliver.Bound, error) {
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
	b, err := plan.Bind(rec.Canonical)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "stored plan: %v", err)
	}
	s.bound.Put(boundKey{ownerID, digest}, b, 0)
	return b, nil
}

// handleDeliver splices one recipient's fingerprinted copy from a
// delivery plan. See the package comment for the three request shapes
// (stored digest, document body, mode=stream).
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
	if r.URL.Query().Get("mode") == "stream" {
		return s.handleDeliverStream(w, r, rt, digest, rcpt)
	}

	var b *deliver.Bound
	if digest != "" {
		// Pure splice: no body, no parse, no worker slot.
		b, err = s.cachedBound(tr, ownerID, digest)
	} else {
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
	ssp := tr.StartSpan("splice")
	out, err := b.AppendCopy(nil, payload)
	ssp.End()
	if err != nil {
		return errf(http.StatusInternalServerError, "splice: %v", err)
	}
	receiptID := deliverReceiptID(rt.owner, rcpt.ID, plan.Digest)
	if err := s.registerDelivery(r, receiptID, rcpt, res); err != nil {
		return err
	}
	s.met.delivers.Inc()
	setDeliverHeaders(w.Header(), receiptID, rcpt.ID, plan.Digest, res)
	w.WriteHeader(http.StatusOK)
	w.Write(out)
	return nil
}

// cachedBound is boundFor under a "cache" span, counted as a plan hit.
func (s *Server) cachedBound(tr *obs.Trace, ownerID, digest string) (*deliver.Bound, error) {
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
func (s *Server) bodyBound(w http.ResponseWriter, r *http.Request, rt *ownerRuntime, ownerID string) (*deliver.Bound, error) {
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
	// Storing the plan is best effort: this delivery splices from the
	// bound plan either way, and a later one recompiles on a miss.
	if planJSON, err := plan.Marshal(); err == nil {
		_ = s.reg.PutPlan(registry.PlanRecord{
			Owner: ownerID, Digest: plan.Digest, Doc: r.URL.Query().Get("doc"),
			CreatedUnix: time.Now().Unix(), Canonical: canonical, Plan: planJSON,
		})
	}
	b, err := plan.Bind(canonical)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "bind plan: %v", err)
	}
	s.bound.Put(boundKey{ownerID, plan.Digest}, b, 0)
	s.met.planCompiles.Inc()
	return b, nil
}

// handleDeliverStream splices a recipient copy in constant memory: the
// body is the canonical document (any size up to MaxStreamBytes), the
// response is the spliced copy, and the plan's digest check runs as the
// stream drains. A digest mismatch fails the request after the status
// line is long gone, so instrument() cuts the connection — streaming
// clients must discard output on a short read.
func (s *Server) handleDeliverStream(w http.ResponseWriter, r *http.Request, rt *ownerRuntime, digest string, rcpt registry.Recipient) error {
	tr := obs.FromContext(r.Context())
	if digest == "" {
		return errf(http.StatusBadRequest, "mode=stream requires the digest query parameter (compile the plan first)")
	}
	b, err := s.cachedBound(tr, rcpt.Owner, digest)
	if err != nil {
		return err
	}
	plan := b.Plan()
	payload := rt.fp.Payload(rcpt.ID)
	res, err := plan.Receipt(payload)
	if err != nil {
		return errf(http.StatusConflict, "plan does not fit this owner's configuration (recompile after a rotation): %v", err)
	}
	receiptID := deliverReceiptID(rt.owner, rcpt.ID, digest)
	if err := s.registerDelivery(r, receiptID, rcpt, res); err != nil {
		return err
	}
	setDeliverHeaders(w.Header(), receiptID, rcpt.ID, digest, res)
	// The response streams while the request body is still being read;
	// HTTP/1.x servers close the request body on the first response
	// write unless full-duplex is enabled (HTTP/2 allows it natively —
	// the error there is ignorable).
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.WriteHeader(http.StatusOK)
	src := io.LimitReader(r.Body, s.opts.MaxStreamBytes)
	ssp := tr.StartSpan("splice")
	err = plan.ApplyReader(w, src, payload)
	ssp.End()
	if err != nil {
		return errf(http.StatusUnprocessableEntity, "splice stream: %v", err)
	}
	s.met.delivers.Inc()
	return nil
}

// setDeliverHeaders sets the response headers of a delivered copy.
func setDeliverHeaders(h http.Header, receiptID, recipient, digest string, res *core.EmbedResult) {
	h.Set("Content-Type", "application/xml")
	h.Set("X-Wmxml-Receipt", receiptID)
	h.Set("X-Wmxml-Recipient", recipient)
	h.Set("X-Wmxml-Digest", digest)
	h.Set("X-Wmxml-Carriers", fmt.Sprint(res.Carriers))
	h.Set("X-Wmxml-Values-Written", fmt.Sprint(res.Embedded))
}

// deliverReceiptID derives the delivery receipt id: bound to the owner
// configuration, the recipient and the document digest, so retrying the
// same delivery dedupes and rotations get fresh receipts.
func deliverReceiptID(o registry.Owner, recipient, digest string) string {
	idh := sha256.New()
	fmt.Fprintf(idh, "dl\x1f%s\x1f%s\x1f%s\x1f%d\x1f%s\x1f%s", o.ID, o.Key, o.Mark, o.Gamma, recipient, digest)
	return "d-" + hex.EncodeToString(idh.Sum(nil))[:32]
}

// registerDelivery records the recipient (a tracing candidate from this
// moment on) and the delivery receipt with the plan-simulated query set
// — the same Q a full fingerprint embed would have safeguarded — under
// a "registry" span. ?register=0 skips it.
func (s *Server) registerDelivery(r *http.Request, receiptID string, rcpt registry.Recipient, res *core.EmbedResult) error {
	if r.URL.Query().Get("register") == "0" {
		return nil
	}
	rgsp := obs.FromContext(r.Context()).StartSpan("registry")
	defer rgsp.End()
	if err := s.reg.PutRecipient(rcpt); err != nil {
		return errf(http.StatusInternalServerError, "store recipient: %v", err)
	}
	if len(res.Records) == 0 {
		// A plan with no carrier units has no query set to safeguard;
		// nothing to store (and the registry would reject an empty one).
		return nil
	}
	rec := registry.Receipt{
		ID: receiptID, Owner: rcpt.Owner, Doc: r.URL.Query().Get("doc"), Recipient: rcpt.ID,
		CreatedUnix:    time.Now().Unix(),
		Records:        res.Records,
		BandwidthUnits: res.Bandwidth.Units,
		Carriers:       res.Carriers,
		ValuesWritten:  res.Embedded,
	}
	if err := s.reg.AddReceipt(rec); err != nil && !errors.Is(err, registry.ErrDuplicate) {
		return errf(http.StatusInternalServerError, "store receipt: %v", err)
	}
	return nil
}
