// Package registry is the multi-tenant key/mark/receipt store behind
// the wmxmld service (internal/server).
//
// The paper's workflow hands the data owner a query set Q at embedding
// time and asks them to "safeguard it together with the secret key";
// the registry is where a long-lived deployment does exactly that, for
// many owners at once. Each Owner record holds the tenant's secret key,
// watermark and document-type spec; each Receipt holds one embedding's
// safeguarded query set plus capacity figures, so later detections
// resolve their queries server-side instead of shipping q.json around.
//
// Four types satisfy the Store interface. Memory serves tests and
// ephemeral deployments; File is a Memory replayed from a JSONL log,
// which every later write appends to, fsync'd, before it is applied;
// Sharded hashes owners over N File logs in one directory; Remote is
// another node's store over HTTP. File is the only on-disk format:
// Sharded reuses it per shard, so there is one write path and one
// replay and crash-recovery path.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"wmxml/internal/core"
)

// ErrNotFound reports a missing owner or receipt.
var ErrNotFound = errors.New("registry: not found")

// ErrDuplicate reports an AddReceipt whose (owner, id) already exists.
var ErrDuplicate = errors.New("registry: receipt already exists")

// Owner is one tenant of the watermarking service: the identity under
// which documents are embedded and detected.
type Owner struct {
	// ID names the tenant in API paths; required, no '/' allowed.
	ID string `json:"id"`
	// Key is the tenant's secret watermarking key; required.
	Key string `json:"key"`
	// Mark is the tenant's watermark message; required.
	Mark string `json:"mark"`
	// Dataset names a built-in document-type preset (pubs, jobs,
	// library, nested); exclusive with Spec.
	Dataset string `json:"dataset,omitempty"`
	// Spec is a JSON document-type spec (internal/config format);
	// exclusive with Dataset.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Gamma is the selection ratio used for this tenant's embeddings
	// (0 = the core default).
	Gamma int `json:"gamma,omitempty"`
	// SLO overrides the service-default latency/error objectives for
	// this tenant. Absent means defaults apply.
	SLO *SLOOverride `json:"slo,omitempty"`
	// CreatedUnix is the registration time (seconds since epoch).
	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// SLOOverride is a tenant's declared service objectives, stored with
// the owner record so re-registration is how an operator tunes them.
// For each field: 0 (or absent) keeps the service default, a negative
// value disables that objective for the tenant.
type SLOOverride struct {
	// DetectP99MS is the latency bound, in milliseconds, that 99% of
	// the tenant's detect requests must meet.
	DetectP99MS float64 `json:"detect_p99_ms,omitempty"`
	// ErrorRatio is the tolerated 5xx fraction (e.g. 0.01 = 1%).
	ErrorRatio float64 `json:"error_ratio,omitempty"`
}

// Validate checks the fields every store requires.
func (o Owner) Validate() error {
	if o.ID == "" {
		return fmt.Errorf("registry: owner id is required")
	}
	for _, r := range o.ID {
		if r == '/' || r == ' ' {
			return fmt.Errorf("registry: owner id %q may not contain '/' or spaces", o.ID)
		}
	}
	if o.Key == "" {
		return fmt.Errorf("registry: owner %q: key is required", o.ID)
	}
	if o.Mark == "" {
		return fmt.Errorf("registry: owner %q: mark is required", o.ID)
	}
	if o.Dataset != "" && len(o.Spec) > 0 {
		return fmt.Errorf("registry: owner %q: dataset and spec are exclusive", o.ID)
	}
	if o.Dataset == "" && len(o.Spec) == 0 {
		return fmt.Errorf("registry: owner %q: a dataset preset or a spec is required", o.ID)
	}
	if o.SLO != nil && o.SLO.ErrorRatio > 1 {
		return fmt.Errorf("registry: owner %q: slo error_ratio %g exceeds 1", o.ID, o.SLO.ErrorRatio)
	}
	return nil
}

// Recipient is one distribution target registered under an owner: the
// party a fingerprinted copy was (or will be) handed to, and therefore
// a tracing candidate. The codeword itself is never stored — it derives
// from the owner key and this id (internal/fingerprint), so the
// registry holds no secrets beyond what the owner record already does.
type Recipient struct {
	// ID names the recipient within its owner; required, no '/' or
	// spaces (it rides in URLs next to owner ids).
	ID string `json:"id"`
	// Owner is the tenant distributing to this recipient.
	Owner string `json:"owner"`
	// Note is an optional free-text label ("EU mirror", contract id).
	Note string `json:"note,omitempty"`
	// CreatedUnix is the registration time (seconds since epoch).
	CreatedUnix int64 `json:"created_unix,omitempty"`
}

// Validate checks the fields every store requires.
func (rc Recipient) Validate() error {
	if rc.ID == "" {
		return fmt.Errorf("registry: recipient id is required")
	}
	for _, r := range rc.ID {
		if r == '/' || r == ' ' {
			return fmt.Errorf("registry: recipient id %q may not contain '/' or spaces", rc.ID)
		}
	}
	if rc.Owner == "" {
		return fmt.Errorf("registry: recipient %q: owner is required", rc.ID)
	}
	return nil
}

// Receipt is one embedding's safeguarded detection material: the query
// set Q plus the capacity report, bound to the owner it was embedded
// for.
type Receipt struct {
	// ID names the receipt within its owner; assigned by the caller
	// (the server uses content-derived ids so retried embeds dedupe).
	ID string `json:"id"`
	// Owner is the tenant the embedding ran under.
	Owner string `json:"owner"`
	// Doc is an optional caller-supplied document label.
	Doc string `json:"doc,omitempty"`
	// Recipient is set on fingerprint embeddings: the recipient whose
	// code this copy carries. Empty for plain ownership embeddings.
	Recipient string `json:"recipient,omitempty"`
	// CreatedUnix is the embedding time (seconds since epoch).
	CreatedUnix int64 `json:"created_unix"`
	// Records is Q, the safeguarded identity queries.
	Records []core.QueryRecord `json:"records"`
	// BandwidthUnits, Carriers and ValuesWritten mirror the embed
	// receipt's capacity figures.
	BandwidthUnits int `json:"bandwidth_units"`
	Carriers       int `json:"carriers"`
	ValuesWritten  int `json:"values_written"`
}

// PlanRecord stores one compiled delivery plan (internal/deliver)
// keyed by the canonical document digest, together with the canonical
// bytes the plan's offsets index into — everything /v1/deliver needs to
// splice a recipient copy without re-reading the original document.
// The plan itself rides as opaque JSON: the registry versions the
// envelope (PlanRecordVersion), the deliver package versions the plan.
type PlanRecord struct {
	// Owner is the tenant the plan was compiled for.
	Owner string `json:"owner"`
	// Digest is the sha256 hex of Canonical — the lookup key.
	Digest string `json:"digest"`
	// Doc is an optional caller-supplied document label.
	Doc string `json:"doc,omitempty"`
	// CreatedUnix is the compile time (seconds since epoch).
	CreatedUnix int64 `json:"created_unix,omitempty"`
	// Canonical is the canonical serialized document bytes.
	Canonical []byte `json:"canonical"`
	// Plan is the deliver-package plan JSON envelope.
	Plan json.RawMessage `json:"plan"`
}

// Validate checks the fields every store requires, including that the
// digest actually names the canonical bytes — a store must never hand
// out a plan whose offsets index different bytes than its key claims.
func (p PlanRecord) Validate() error {
	if p.Owner == "" {
		return fmt.Errorf("registry: plan: owner is required")
	}
	if len(p.Digest) != 64 {
		return fmt.Errorf("registry: plan: digest %q is not a sha256 hex digest", p.Digest)
	}
	if len(p.Plan) == 0 {
		return fmt.Errorf("registry: plan %s: empty plan body", p.Digest)
	}
	if len(p.Canonical) == 0 {
		return fmt.Errorf("registry: plan %s: no canonical bytes", p.Digest)
	}
	sum := sha256.Sum256(p.Canonical)
	if got := hex.EncodeToString(sum[:]); got != p.Digest {
		return fmt.Errorf("registry: plan digest %s does not match canonical bytes (%s)", p.Digest, got)
	}
	return nil
}

// Store is the registry contract shared by Memory, File, Sharded and
// Remote. Implementations are safe for concurrent use.
type Store interface {
	// PutOwner registers or replaces an owner.
	PutOwner(o Owner) error
	// GetOwner returns the owner or ErrNotFound.
	GetOwner(id string) (Owner, error)
	// ListOwners returns every owner, id-sorted.
	ListOwners() ([]Owner, error)
	// AddReceipt appends a receipt; (owner, id) must be new, the owner
	// must exist.
	AddReceipt(r Receipt) error
	// GetReceipt returns one receipt or ErrNotFound.
	GetReceipt(owner, id string) (Receipt, error)
	// ListReceipts returns an owner's receipts in insertion order. The
	// owner must exist (ErrNotFound otherwise); no receipts is an empty
	// slice.
	ListReceipts(owner string) ([]Receipt, error)
	// PutRecipient registers (or re-labels) a recipient; the owner must
	// exist.
	PutRecipient(rc Recipient) error
	// GetRecipient returns one recipient or ErrNotFound.
	GetRecipient(owner, id string) (Recipient, error)
	// ListRecipients returns an owner's recipients in first-registration
	// order — the candidate list a trace sweeps. The owner must exist
	// (ErrNotFound otherwise); no recipients is an empty slice.
	ListRecipients(owner string) ([]Recipient, error)
	// PutPlan stores or replaces a compiled delivery plan; the owner
	// must exist. Re-putting a digest keeps the original store time.
	PutPlan(p PlanRecord) error
	// GetPlan returns the plan for (owner, digest) or ErrNotFound.
	GetPlan(owner, digest string) (PlanRecord, error)
	// ListPlans returns an owner's plans in first-store order. The owner
	// must exist (ErrNotFound otherwise); no plans is an empty slice.
	ListPlans(owner string) ([]PlanRecord, error)
	// Close releases resources; the store is unusable afterwards.
	Close() error
}

// validateReceipt checks the fields every store requires.
func validateReceipt(r Receipt) error {
	if r.ID == "" {
		return fmt.Errorf("registry: receipt id is required")
	}
	if r.Owner == "" {
		return fmt.Errorf("registry: receipt %q: owner is required", r.ID)
	}
	if len(r.Records) == 0 {
		return fmt.Errorf("registry: receipt %q: no query records", r.ID)
	}
	return nil
}
