package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"wmxml/internal/core"
	"wmxml/internal/registry"
)

// agree fails the test unless the wrapper's result and error equal the
// File store's own for the same call.
func agree[T any](t *testing.T, call string, got T, gotErr error, want T, wantErr error) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: wrapper returned %+v, store %+v", call, got, want)
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("%s: wrapper error %v, store error %v", call, gotErr, wantErr)
	}
	for _, sentinel := range []error{registry.ErrNotFound, registry.ErrDuplicate} {
		if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
			t.Errorf("%s: errors.Is(%v) differs: wrapper %v, store %v", call, sentinel, gotErr, wantErr)
		}
	}
}

func TestTimedStorePassesThrough(t *testing.T) {
	f, err := registry.OpenFile(filepath.Join(t.TempDir(), "registry.jsonl"), registry.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	s := &timedStore{inner: f, observe: func(call string, start, end time.Time) {
		if end.Before(start) {
			t.Errorf("%s: end before start", call)
		}
		seen = append(seen, call)
	}}
	s.on.Store(true)

	// Writes go through the wrapper; their effect is read back from the
	// File store directly, and reads and failing writes are made both
	// ways with the same arguments.
	o := registry.Owner{ID: "o", Key: "k", Mark: "m", Dataset: "pubs", CreatedUnix: 1}
	agree(t, "PutOwner", 0, s.PutOwner(o), 0, nil)
	bad := registry.Owner{ID: "bad/id", Key: "k", Mark: "m", Dataset: "pubs"}
	agree(t, "PutOwner invalid", 0, s.PutOwner(bad), 0, f.PutOwner(bad))
	for _, id := range []string{"o", "missing"} {
		got, gotErr := s.GetOwner(id)
		want, wantErr := f.GetOwner(id)
		agree(t, "GetOwner "+id, got, gotErr, want, wantErr)
	}
	{
		got, gotErr := s.ListOwners()
		want, wantErr := f.ListOwners()
		agree(t, "ListOwners", got, gotErr, want, wantErr)
	}

	rc := registry.Receipt{ID: "r1", Owner: "o", CreatedUnix: 2, Records: []core.QueryRecord{{Query: "db/book[title='x']/year"}}}
	agree(t, "AddReceipt", 0, s.AddReceipt(rc), 0, nil)
	agree(t, "AddReceipt duplicate", 0, s.AddReceipt(rc), 0, f.AddReceipt(rc))
	orphan := rc
	orphan.Owner = "missing"
	agree(t, "AddReceipt unknown owner", 0, s.AddReceipt(orphan), 0, f.AddReceipt(orphan))
	for _, id := range []string{"r1", "missing"} {
		got, gotErr := s.GetReceipt("o", id)
		want, wantErr := f.GetReceipt("o", id)
		agree(t, "GetReceipt "+id, got, gotErr, want, wantErr)
	}
	for _, id := range []string{"o", "missing"} {
		got, gotErr := s.ListReceipts(id)
		want, wantErr := f.ListReceipts(id)
		agree(t, "ListReceipts "+id, got, gotErr, want, wantErr)
	}

	rcpt := registry.Recipient{ID: "p", Owner: "o", CreatedUnix: 3}
	agree(t, "PutRecipient", 0, s.PutRecipient(rcpt), 0, nil)
	badRcpt := registry.Recipient{ID: "p", Owner: "missing"}
	agree(t, "PutRecipient unknown owner", 0, s.PutRecipient(badRcpt), 0, f.PutRecipient(badRcpt))
	for _, id := range []string{"p", "missing"} {
		got, gotErr := s.GetRecipient("o", id)
		want, wantErr := f.GetRecipient("o", id)
		agree(t, "GetRecipient "+id, got, gotErr, want, wantErr)
	}
	{
		got, gotErr := s.ListRecipients("o")
		want, wantErr := f.ListRecipients("o")
		agree(t, "ListRecipients", got, gotErr, want, wantErr)
	}

	canonical := []byte("<db/>")
	sum := sha256.Sum256(canonical)
	plan := registry.PlanRecord{Owner: "o", Digest: hex.EncodeToString(sum[:]), CreatedUnix: 4, Canonical: canonical, Plan: json.RawMessage(`{}`)}
	agree(t, "PutPlan", 0, s.PutPlan(plan), 0, nil)
	badPlan := plan
	badPlan.Digest = "short"
	agree(t, "PutPlan invalid", 0, s.PutPlan(badPlan), 0, f.PutPlan(badPlan))
	for _, d := range []string{plan.Digest, "missing"} {
		got, gotErr := s.GetPlan("o", d)
		want, wantErr := f.GetPlan("o", d)
		agree(t, "GetPlan "+d, got, gotErr, want, wantErr)
	}
	{
		got, gotErr := s.ListPlans("o")
		want, wantErr := f.ListPlans("o")
		agree(t, "ListPlans", got, gotErr, want, wantErr)
	}

	if got, err := f.GetOwner("o"); err != nil || !reflect.DeepEqual(got, o) {
		t.Errorf("owner written through the wrapper reads back as %+v, %v", got, err)
	}
	if got, err := f.GetReceipt("o", "r1"); err != nil || !reflect.DeepEqual(got, rc) {
		t.Errorf("receipt written through the wrapper reads back as %+v, %v", got, err)
	}

	agree(t, "Close", 0, s.Close(), 0, nil)
	agree(t, "Close again", 0, s.Close(), 0, f.Close())

	for _, call := range []string{
		"registry.put_owner", "registry.get_owner", "registry.list_owners",
		"registry.add_receipt", "registry.get_receipt", "registry.list_receipts",
		"registry.put_recipient", "registry.get_recipient", "registry.list_recipients",
		"registry.put_plan", "registry.get_plan", "registry.list_plans", "registry.close",
	} {
		if !slices.Contains(seen, call) {
			t.Errorf("observer never saw %s", call)
		}
	}
}

func TestTimedStoreReportsOnlyWhenOn(t *testing.T) {
	s := &timedStore{inner: registry.NewMemory(), observe: func(call string, _, _ time.Time) {
		t.Errorf("observer called for %s while off", call)
	}}
	if _, err := s.GetOwner("missing"); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("GetOwner: %v, want ErrNotFound", err)
	}
}
