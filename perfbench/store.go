package main

import (
	"sync/atomic"
	"time"

	"wmxml/internal/registry"
)

// timedStore is a registry.Store decorator that reports the duration of
// every call into the wrapped store. The benchmark installs it on traced
// runs only, and it reports only while on is set, so the untraced end-to-
// end numbers never pay for the wrapper. Results and errors pass through
// unchanged.
type timedStore struct {
	inner   registry.Store
	on      atomic.Bool
	observe func(call string, start, end time.Time)
}

// done reports one finished call to the observer when reporting is on.
func (s *timedStore) done(call string, start time.Time) {
	if s.on.Load() {
		s.observe(call, start, time.Now())
	}
}

func (s *timedStore) PutOwner(o registry.Owner) error {
	t := time.Now()
	err := s.inner.PutOwner(o)
	s.done("registry.put_owner", t)
	return err
}

func (s *timedStore) GetOwner(id string) (registry.Owner, error) {
	t := time.Now()
	o, err := s.inner.GetOwner(id)
	s.done("registry.get_owner", t)
	return o, err
}

func (s *timedStore) ListOwners() ([]registry.Owner, error) {
	t := time.Now()
	os, err := s.inner.ListOwners()
	s.done("registry.list_owners", t)
	return os, err
}

func (s *timedStore) AddReceipt(r registry.Receipt) error {
	t := time.Now()
	err := s.inner.AddReceipt(r)
	s.done("registry.add_receipt", t)
	return err
}

func (s *timedStore) GetReceipt(owner, id string) (registry.Receipt, error) {
	t := time.Now()
	r, err := s.inner.GetReceipt(owner, id)
	s.done("registry.get_receipt", t)
	return r, err
}

func (s *timedStore) ListReceipts(owner string) ([]registry.Receipt, error) {
	t := time.Now()
	rs, err := s.inner.ListReceipts(owner)
	s.done("registry.list_receipts", t)
	return rs, err
}

func (s *timedStore) PutRecipient(rc registry.Recipient) error {
	t := time.Now()
	err := s.inner.PutRecipient(rc)
	s.done("registry.put_recipient", t)
	return err
}

func (s *timedStore) GetRecipient(owner, id string) (registry.Recipient, error) {
	t := time.Now()
	rc, err := s.inner.GetRecipient(owner, id)
	s.done("registry.get_recipient", t)
	return rc, err
}

func (s *timedStore) ListRecipients(owner string) ([]registry.Recipient, error) {
	t := time.Now()
	rcs, err := s.inner.ListRecipients(owner)
	s.done("registry.list_recipients", t)
	return rcs, err
}

func (s *timedStore) PutPlan(p registry.PlanRecord) error {
	t := time.Now()
	err := s.inner.PutPlan(p)
	s.done("registry.put_plan", t)
	return err
}

func (s *timedStore) GetPlan(owner, digest string) (registry.PlanRecord, error) {
	t := time.Now()
	p, err := s.inner.GetPlan(owner, digest)
	s.done("registry.get_plan", t)
	return p, err
}

func (s *timedStore) ListPlans(owner string) ([]registry.PlanRecord, error) {
	t := time.Now()
	ps, err := s.inner.ListPlans(owner)
	s.done("registry.list_plans", t)
	return ps, err
}

func (s *timedStore) Close() error {
	t := time.Now()
	err := s.inner.Close()
	s.done("registry.close", t)
	return err
}
