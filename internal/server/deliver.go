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
func (s *Server) handleDeliverPlan(w http.ResponseWriter, r *http.Request) {
	tr := obs.FromContext(r.Context())
	tr.SetOp("deliver_plan")
	ownerID := r.URL.Query().Get("owner")
	rt, err := s.runtimeFor(r, ownerID)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if err := s.acquire(r); err != nil {
		s.writeErr(w, r, err)
		return
	}
	defer s.release()
	psp := tr.StartSpan("parse")
	doc, err := s.parseDoc(body)
	psp.End()
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	var (
		plan      *deliver.Plan
		canonical []byte
	)
	csp := tr.StartSpan("plan_compile")
	if err := guarded(func() error {
		var cerr error
		plan, canonical, cerr = deliver.Compile(doc, rt.fp.PlanConfig(), canonSerializeOpts)
		return cerr
	}); err != nil {
		s.writeErr(w, r, errf(http.StatusUnprocessableEntity, "compile plan: %v", err))
		return
	}
	csp.End()
	planJSON, err := plan.Marshal()
	if err != nil {
		s.writeErr(w, r, errf(http.StatusInternalServerError, "encode plan: %v", err))
		return
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
		s.writeErr(w, r, errf(http.StatusInternalServerError, "store plan: %v", err))
		return
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
func (s *Server) handleDeliver(w http.ResponseWriter, r *http.Request) {
	tr := obs.FromContext(r.Context())
	tr.SetOp("deliver")
	ownerID := r.URL.Query().Get("owner")
	rt, err := s.runtimeFor(r, ownerID)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	recipientID := r.URL.Query().Get("recipient")
	if recipientID == "" {
		s.writeErr(w, r, errf(http.StatusBadRequest, "recipient query parameter is required"))
		return
	}
	rcpt := registry.Recipient{ID: recipientID, Owner: ownerID, Note: r.URL.Query().Get("note"), CreatedUnix: time.Now().Unix()}
	if err := rcpt.Validate(); err != nil {
		s.writeErr(w, r, errf(http.StatusBadRequest, "%v", err))
		return
	}
	digest := r.URL.Query().Get("digest")
	if r.URL.Query().Get("mode") == "stream" {
		s.handleDeliverStream(w, r, rt, ownerID, recipientID, digest, rcpt)
		return
	}

	var b *deliver.Bound
	switch {
	case digest != "":
		// Pure splice: no body, no parse, no worker slot.
		csp := tr.StartSpan("cache")
		b, err = s.boundFor(ownerID, digest)
		if err != nil {
			csp.EndNote("miss")
			s.writeErr(w, r, err)
			return
		}
		csp.EndNote("hit")
		s.met.planHits.Inc()
	default:
		// Document body: canonicalize, reuse a stored plan when one
		// matches, compile otherwise.
		body, rerr := s.readBody(w, r)
		if rerr != nil {
			s.writeErr(w, r, rerr)
			return
		}
		if err := s.acquire(r); err != nil {
			s.writeErr(w, r, err)
			return
		}
		psp := tr.StartSpan("parse")
		doc, perr := s.parseDoc(body)
		psp.End()
		if perr != nil {
			s.release()
			s.writeErr(w, r, perr)
			return
		}
		var canon bytes.Buffer
		if err := xmltree.Serialize(&canon, doc, canonSerializeOpts); err != nil {
			s.release()
			s.writeErr(w, r, errf(http.StatusUnprocessableEntity, "canonicalize: %v", err))
			return
		}
		digest = deliver.DigestBytes(canon.Bytes())
		if cached, berr := s.boundFor(ownerID, digest); berr == nil {
			b = cached
			s.met.planHits.Inc()
		} else {
			var plan *deliver.Plan
			var canonical []byte
			csp := tr.StartSpan("plan_compile")
			if err := guarded(func() error {
				var cerr error
				plan, canonical, cerr = deliver.Compile(doc, rt.fp.PlanConfig(), canonSerializeOpts)
				return cerr
			}); err != nil {
				s.release()
				s.writeErr(w, r, errf(http.StatusUnprocessableEntity, "compile plan: %v", err))
				return
			}
			csp.End()
			if planJSON, merr := plan.Marshal(); merr == nil {
				s.reg.PutPlan(registry.PlanRecord{
					Owner: ownerID, Digest: plan.Digest, Doc: r.URL.Query().Get("doc"),
					CreatedUnix: time.Now().Unix(), Canonical: canonical, Plan: planJSON,
				})
			}
			b, err = plan.Bind(canonical)
			if err != nil {
				s.release()
				s.writeErr(w, r, errf(http.StatusInternalServerError, "bind plan: %v", err))
				return
			}
			s.bound.Put(boundKey{ownerID, plan.Digest}, b, 0)
			s.met.planCompiles.Inc()
		}
		s.release()
	}

	plan := b.Plan()
	payload := rt.fp.Payload(recipientID)
	res, err := plan.Receipt(payload)
	if err != nil {
		s.writeErr(w, r, errf(http.StatusConflict, "plan does not fit this owner's configuration (recompile after a rotation): %v", err))
		return
	}
	ssp := tr.StartSpan("splice")
	out, err := b.AppendCopy(nil, payload)
	ssp.End()
	if err != nil {
		s.writeErr(w, r, errf(http.StatusInternalServerError, "splice: %v", err))
		return
	}

	receiptID := deliverReceiptID(rt.owner, recipientID, plan.Digest)
	if r.URL.Query().Get("register") != "0" {
		rgsp := tr.StartSpan("registry")
		err := s.registerDelivery(ownerID, receiptID, rcpt, r.URL.Query().Get("doc"), res)
		rgsp.End()
		if err != nil {
			s.writeErr(w, r, err)
			return
		}
	}
	s.met.delivers.Inc()
	h := w.Header()
	h.Set("Content-Type", "application/xml")
	h.Set("X-Wmxml-Receipt", receiptID)
	h.Set("X-Wmxml-Recipient", recipientID)
	h.Set("X-Wmxml-Digest", plan.Digest)
	h.Set("X-Wmxml-Carriers", fmt.Sprint(res.Carriers))
	h.Set("X-Wmxml-Values-Written", fmt.Sprint(res.Embedded))
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

// handleDeliverStream splices a recipient copy in constant memory: the
// body is the canonical document (any size up to MaxStreamBytes), the
// response is the spliced copy, and the plan's digest check runs as the
// stream drains. A digest mismatch aborts the response mid-body — the
// status line is long gone — so streaming clients must discard output
// on a short read.
func (s *Server) handleDeliverStream(w http.ResponseWriter, r *http.Request, rt *ownerRuntime, ownerID, recipientID, digest string, rcpt registry.Recipient) {
	tr := obs.FromContext(r.Context())
	if digest == "" {
		s.writeErr(w, r, errf(http.StatusBadRequest, "mode=stream requires the digest query parameter (compile the plan first)"))
		return
	}
	csp := tr.StartSpan("cache")
	b, err := s.boundFor(ownerID, digest)
	if err != nil {
		csp.EndNote("miss")
		s.writeErr(w, r, err)
		return
	}
	csp.EndNote("hit")
	plan := b.Plan()
	payload := rt.fp.Payload(recipientID)
	res, err := plan.Receipt(payload)
	if err != nil {
		s.writeErr(w, r, errf(http.StatusConflict, "plan does not fit this owner's configuration (recompile after a rotation): %v", err))
		return
	}
	receiptID := deliverReceiptID(rt.owner, recipientID, digest)
	if r.URL.Query().Get("register") != "0" {
		rgsp := tr.StartSpan("registry")
		err := s.registerDelivery(ownerID, receiptID, rcpt, r.URL.Query().Get("doc"), res)
		rgsp.End()
		if err != nil {
			s.writeErr(w, r, err)
			return
		}
	}
	s.met.planHits.Inc()
	h := w.Header()
	h.Set("Content-Type", "application/xml")
	h.Set("X-Wmxml-Receipt", receiptID)
	h.Set("X-Wmxml-Recipient", recipientID)
	h.Set("X-Wmxml-Digest", digest)
	h.Set("X-Wmxml-Carriers", fmt.Sprint(res.Carriers))
	h.Set("X-Wmxml-Values-Written", fmt.Sprint(res.Embedded))
	// The response streams while the request body is still being read;
	// HTTP/1.x servers close the request body on the first response
	// write unless full-duplex is enabled (HTTP/2 allows it natively —
	// the error there is ignorable).
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.WriteHeader(http.StatusOK)
	src := io.LimitReader(r.Body, s.opts.MaxStreamBytes)
	ssp := tr.StartSpan("splice")
	if err := plan.ApplyReader(w, src, payload); err != nil {
		// Headers are sent; all we can do is cut the connection short so
		// the client sees a truncated body, never a clean wrong copy.
		panic(http.ErrAbortHandler)
	}
	ssp.End()
	s.met.delivers.Inc()
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
// — the same Q a full fingerprint embed would have safeguarded.
func (s *Server) registerDelivery(ownerID, receiptID string, rcpt registry.Recipient, label string, res *core.EmbedResult) error {
	if err := s.reg.PutRecipient(rcpt); err != nil {
		return errf(http.StatusInternalServerError, "store recipient: %v", err)
	}
	if len(res.Records) == 0 {
		// A plan with no carrier units has no query set to safeguard;
		// nothing to store (and the registry would reject an empty one).
		return nil
	}
	rec := registry.Receipt{
		ID: receiptID, Owner: ownerID, Doc: label, Recipient: rcpt.ID,
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
