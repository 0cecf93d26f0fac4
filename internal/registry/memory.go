package registry

import (
	"fmt"
	"sort"
	"sync"
)

// Memory is the in-process Store: maps under a lock. It backs tests
// and ephemeral deployments, and File is a Memory with its durable log
// attached.
type Memory struct {
	// wmu serializes writers: every mutation runs write under it, and
	// File holds it while it measures or swaps its log. Readers never
	// take it.
	wmu sync.Mutex
	// log appends one record durably before write applies it; nil for
	// a bare Memory. File attaches its append once replay is done.
	log func(logLine) error

	mu         sync.RWMutex
	owners     map[string]Owner
	receipts   map[string][]Receipt             // owner -> insertion order
	byID       map[string]map[string]Receipt    // owner -> id -> receipt
	recipients map[string]map[string]Recipient  // owner -> id -> recipient
	recOrder   map[string][]string              // owner -> recipient ids, first-registration order
	plans      map[string]map[string]PlanRecord // owner -> digest -> plan
	planOrder  map[string][]string              // owner -> digests, first-store order
}

// NewMemory builds an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{
		owners:     make(map[string]Owner),
		receipts:   make(map[string][]Receipt),
		byID:       make(map[string]map[string]Receipt),
		recipients: make(map[string]map[string]Recipient),
		recOrder:   make(map[string][]string),
		plans:      make(map[string]map[string]PlanRecord),
		planOrder:  make(map[string][]string),
	}
}

// write is the one path every mutation takes, a File's replay included:
//
//  1. validate the record;
//  2. check it against the state under the read lock: its owner
//     exists, and a receipt id is new;
//  3. append it to the log, if one is attached;
//  4. apply it under the write lock.
//
// wmu holds the steps together, so the state cannot move between the
// check and the apply, and a rejected write never reaches the log.
// Readers take only mu, so none of them waits on an append's fsync.
func (m *Memory) write(l logLine) error {
	if err := l.validate(); err != nil {
		return err
	}
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.mu.RLock()
	err := m.check(l)
	m.mu.RUnlock()
	if err != nil {
		return err
	}
	if m.log != nil {
		if err := m.log(l); err != nil {
			return err
		}
	}
	m.mu.Lock()
	m.apply(l)
	m.mu.Unlock()
	return nil
}

// validate checks that l carries the record its tag names, in a
// version this build reads, and that the record is well formed.
func (l logLine) validate() error {
	switch l.T {
	case "owner":
		if l.Owner == nil {
			return fmt.Errorf("owner line without owner")
		}
		return l.Owner.Validate()
	case "receipt":
		if l.Receipt == nil {
			return fmt.Errorf("receipt line without receipt")
		}
		return validateReceipt(*l.Receipt)
	case "recipient":
		if l.V > RecipientRecordVersion {
			return fmt.Errorf("recipient record version %d is newer than this build supports (%d)", l.V, RecipientRecordVersion)
		}
		if l.Recipient == nil {
			return fmt.Errorf("recipient line without recipient")
		}
		return l.Recipient.Validate()
	case "plan":
		if l.V > PlanRecordVersion {
			return fmt.Errorf("plan record version %d is newer than this build supports (%d)", l.V, PlanRecordVersion)
		}
		if l.Plan == nil {
			return fmt.Errorf("plan line without plan")
		}
		return l.Plan.Validate()
	default:
		return fmt.Errorf("unknown log record type %q", l.T)
	}
}

// check tests a valid record against the state: every record but an
// owner needs its owner registered, and a receipt id must be new.
// Callers hold mu for reading.
func (m *Memory) check(l logLine) error {
	var owner string
	switch l.T {
	case "owner":
		return nil
	case "receipt":
		owner = l.Receipt.Owner
	case "recipient":
		owner = l.Recipient.Owner
	case "plan":
		owner = l.Plan.Owner
	}
	if _, ok := m.owners[owner]; !ok {
		return ErrNotFound
	}
	if l.T == "receipt" {
		if _, dup := m.byID[owner][l.Receipt.ID]; dup {
			return ErrDuplicate
		}
	}
	return nil
}

// apply folds a checked record into the state. A re-put recipient or
// plan keeps its first time and place in its owner's order. Callers
// hold mu for writing.
func (m *Memory) apply(l logLine) {
	switch l.T {
	case "owner":
		m.owners[l.Owner.ID] = *l.Owner
	case "receipt":
		r := *l.Receipt
		ids := m.byID[r.Owner]
		if ids == nil {
			ids = make(map[string]Receipt)
			m.byID[r.Owner] = ids
		}
		ids[r.ID] = r
		m.receipts[r.Owner] = append(m.receipts[r.Owner], r)
	case "recipient":
		rc := *l.Recipient
		ids := m.recipients[rc.Owner]
		if ids == nil {
			ids = make(map[string]Recipient)
			m.recipients[rc.Owner] = ids
		}
		if old, ok := ids[rc.ID]; ok {
			if rc.CreatedUnix == 0 || (old.CreatedUnix != 0 && old.CreatedUnix < rc.CreatedUnix) {
				rc.CreatedUnix = old.CreatedUnix
			}
		} else {
			m.recOrder[rc.Owner] = append(m.recOrder[rc.Owner], rc.ID)
		}
		ids[rc.ID] = rc
	case "plan":
		p := *l.Plan
		digests := m.plans[p.Owner]
		if digests == nil {
			digests = make(map[string]PlanRecord)
			m.plans[p.Owner] = digests
		}
		if old, ok := digests[p.Digest]; ok {
			if p.CreatedUnix == 0 || (old.CreatedUnix != 0 && old.CreatedUnix < p.CreatedUnix) {
				p.CreatedUnix = old.CreatedUnix
			}
		} else {
			m.planOrder[p.Owner] = append(m.planOrder[p.Owner], p.Digest)
		}
		digests[p.Digest] = p
	}
}

// PutOwner registers or replaces an owner.
func (m *Memory) PutOwner(o Owner) error { return m.write(logLine{T: "owner", Owner: &o}) }

// GetOwner returns the owner or ErrNotFound.
func (m *Memory) GetOwner(id string) (Owner, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, ok := m.owners[id]
	if !ok {
		return Owner{}, ErrNotFound
	}
	return o, nil
}

// ListOwners returns every owner, id-sorted.
func (m *Memory) ListOwners() ([]Owner, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Owner, 0, len(m.owners))
	for _, o := range m.owners {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// AddReceipt appends a receipt for an existing owner.
func (m *Memory) AddReceipt(r Receipt) error { return m.write(logLine{T: "receipt", Receipt: &r}) }

// GetReceipt returns one receipt or ErrNotFound.
func (m *Memory) GetReceipt(owner, id string) (Receipt, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	r, ok := m.byID[owner][id]
	if !ok {
		return Receipt{}, ErrNotFound
	}
	return r, nil
}

// ListReceipts returns an owner's receipts in insertion order.
func (m *Memory) ListReceipts(owner string) ([]Receipt, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.owners[owner]; !ok {
		return nil, ErrNotFound
	}
	out := make([]Receipt, len(m.receipts[owner]))
	copy(out, m.receipts[owner])
	return out, nil
}

// PutRecipient registers a recipient under an existing owner.
// Re-putting an existing id updates the note but keeps the original
// registration time and ordering (fingerprint retries are idempotent).
func (m *Memory) PutRecipient(rc Recipient) error {
	return m.write(logLine{T: "recipient", V: RecipientRecordVersion, Recipient: &rc})
}

// GetRecipient returns one recipient or ErrNotFound.
func (m *Memory) GetRecipient(owner, id string) (Recipient, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	rc, ok := m.recipients[owner][id]
	if !ok {
		return Recipient{}, ErrNotFound
	}
	return rc, nil
}

// ListRecipients returns an owner's recipients in first-registration
// order.
func (m *Memory) ListRecipients(owner string) ([]Recipient, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.owners[owner]; !ok {
		return nil, ErrNotFound
	}
	out := make([]Recipient, 0, len(m.recOrder[owner]))
	for _, id := range m.recOrder[owner] {
		out = append(out, m.recipients[owner][id])
	}
	return out, nil
}

// PutPlan stores a delivery plan under an existing owner. Re-putting a
// digest replaces the plan but keeps the original store time and
// ordering (recompiles of the same document are idempotent).
func (m *Memory) PutPlan(p PlanRecord) error {
	return m.write(logLine{T: "plan", V: PlanRecordVersion, Plan: &p})
}

// GetPlan returns the plan for (owner, digest) or ErrNotFound.
func (m *Memory) GetPlan(owner, digest string) (PlanRecord, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	p, ok := m.plans[owner][digest]
	if !ok {
		return PlanRecord{}, ErrNotFound
	}
	return p, nil
}

// ListPlans returns an owner's plans in first-store order.
func (m *Memory) ListPlans(owner string) ([]PlanRecord, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.owners[owner]; !ok {
		return nil, ErrNotFound
	}
	out := make([]PlanRecord, 0, len(m.planOrder[owner]))
	for _, d := range m.planOrder[owner] {
		out = append(out, m.plans[owner][d])
	}
	return out, nil
}

// memSnapshot is a point-in-time copy of a Memory store's live state,
// in the order compaction writes it: owners id-sorted, then each
// owner's recipients, plans and receipts in their listing order. The
// contained records share backing arrays (Spec, Canonical, Records)
// with the live store, which is sound because no store mutates a
// record in place — every write replaces whole values.
type memSnapshot struct {
	owners     []Owner
	recipients map[string][]Recipient
	plans      map[string][]PlanRecord
	receipts   map[string][]Receipt
}

// snapshot copies the live state under one read-lock acquisition, so a
// compaction can stream a consistent image without holding any lock
// while it writes.
func (m *Memory) snapshot() memSnapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	snap := memSnapshot{
		owners:     make([]Owner, 0, len(m.owners)),
		recipients: make(map[string][]Recipient, len(m.recipients)),
		plans:      make(map[string][]PlanRecord, len(m.plans)),
		receipts:   make(map[string][]Receipt, len(m.receipts)),
	}
	for _, o := range m.owners {
		snap.owners = append(snap.owners, o)
	}
	sort.Slice(snap.owners, func(i, j int) bool { return snap.owners[i].ID < snap.owners[j].ID })
	for owner, ids := range m.recOrder {
		rcs := make([]Recipient, 0, len(ids))
		for _, id := range ids {
			rcs = append(rcs, m.recipients[owner][id])
		}
		snap.recipients[owner] = rcs
	}
	for owner, digests := range m.planOrder {
		ps := make([]PlanRecord, 0, len(digests))
		for _, d := range digests {
			ps = append(ps, m.plans[owner][d])
		}
		snap.plans[owner] = ps
	}
	for owner, recs := range m.receipts {
		out := make([]Receipt, len(recs))
		copy(out, recs)
		snap.receipts[owner] = out
	}
	return snap
}

// Close is a no-op for the memory store.
func (m *Memory) Close() error { return nil }

var _ Store = (*Memory)(nil)
