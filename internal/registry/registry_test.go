package registry

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wmxml/internal/core"
)

func testOwner(id string) Owner {
	return Owner{ID: id, Key: "k-" + id, Mark: "(C) " + id, Dataset: "pubs", Gamma: 5}
}

func testReceipt(owner, id string) Receipt {
	return Receipt{
		ID:    id,
		Owner: owner,
		Doc:   "doc-" + id,
		Records: []core.QueryRecord{
			{ID: "u1", Query: "db/book[title='X']/year", Type: "integer", Target: "db/book/year"},
			{ID: "u2", Query: "db/book[title='Y']/price", Type: "decimal", Target: "db/book/price"},
		},
		BandwidthUnits: 40, Carriers: 2, ValuesWritten: 3,
	}
}

// openStores builds one store per implementation over the same test
// scenario; the returned cleanup closes them.
func openStores(t *testing.T) map[string]Store {
	t.Helper()
	dir := t.TempDir()
	fileStore, err := OpenFile(filepath.Join(dir, "reg.jsonl"), FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fileStore.Close() })
	return map[string]Store{"memory": NewMemory(), "file": fileStore}
}

// TestStoreConformance runs the Store contract over both
// implementations.
func TestStoreConformance(t *testing.T) {
	for name, st := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			// Missing owner.
			if _, err := st.GetOwner("nobody"); !errors.Is(err, ErrNotFound) {
				t.Errorf("GetOwner(missing) = %v, want ErrNotFound", err)
			}
			if _, err := st.ListReceipts("nobody"); !errors.Is(err, ErrNotFound) {
				t.Errorf("ListReceipts(missing) = %v, want ErrNotFound", err)
			}
			// Invalid owners.
			for _, bad := range []Owner{
				{},
				{ID: "a/b", Key: "k", Mark: "m", Dataset: "pubs"},
				{ID: "a", Mark: "m", Dataset: "pubs"},
				{ID: "a", Key: "k", Dataset: "pubs"},
				{ID: "a", Key: "k", Mark: "m"},
				{ID: "a", Key: "k", Mark: "m", Dataset: "pubs", Spec: json.RawMessage(`{}`)},
			} {
				if err := st.PutOwner(bad); err == nil {
					t.Errorf("PutOwner(%+v) accepted", bad)
				}
			}
			// Register, fetch, overwrite.
			if err := st.PutOwner(testOwner("acme")); err != nil {
				t.Fatal(err)
			}
			if err := st.PutOwner(testOwner("zeta")); err != nil {
				t.Fatal(err)
			}
			got, err := st.GetOwner("acme")
			if err != nil || got.Key != "k-acme" {
				t.Fatalf("GetOwner(acme) = %+v, %v", got, err)
			}
			upd := testOwner("acme")
			upd.Gamma = 9
			if err := st.PutOwner(upd); err != nil {
				t.Fatal(err)
			}
			if got, _ := st.GetOwner("acme"); got.Gamma != 9 {
				t.Errorf("owner overwrite lost: %+v", got)
			}
			owners, err := st.ListOwners()
			if err != nil || len(owners) != 2 || owners[0].ID != "acme" || owners[1].ID != "zeta" {
				t.Fatalf("ListOwners = %+v, %v", owners, err)
			}
			// Receipts.
			if err := st.AddReceipt(testReceipt("nobody", "r1")); !errors.Is(err, ErrNotFound) {
				t.Errorf("AddReceipt(unknown owner) = %v, want ErrNotFound", err)
			}
			if err := st.AddReceipt(Receipt{ID: "r1", Owner: "acme"}); err == nil {
				t.Errorf("AddReceipt without records accepted")
			}
			if err := st.AddReceipt(testReceipt("acme", "r1")); err != nil {
				t.Fatal(err)
			}
			if err := st.AddReceipt(testReceipt("acme", "r2")); err != nil {
				t.Fatal(err)
			}
			if err := st.AddReceipt(testReceipt("acme", "r1")); !errors.Is(err, ErrDuplicate) {
				t.Errorf("duplicate receipt = %v, want ErrDuplicate", err)
			}
			r, err := st.GetReceipt("acme", "r2")
			if err != nil || r.Doc != "doc-r2" || len(r.Records) != 2 {
				t.Fatalf("GetReceipt = %+v, %v", r, err)
			}
			if _, err := st.GetReceipt("acme", "r9"); !errors.Is(err, ErrNotFound) {
				t.Errorf("GetReceipt(missing) = %v, want ErrNotFound", err)
			}
			recs, err := st.ListReceipts("acme")
			if err != nil || len(recs) != 2 || recs[0].ID != "r1" || recs[1].ID != "r2" {
				t.Fatalf("ListReceipts = %+v, %v", recs, err)
			}
			if recs, _ := st.ListReceipts("zeta"); len(recs) != 0 {
				t.Errorf("zeta has receipts: %+v", recs)
			}
			// Recipients.
			if _, err := st.ListRecipients("nobody"); !errors.Is(err, ErrNotFound) {
				t.Errorf("ListRecipients(missing owner) = %v, want ErrNotFound", err)
			}
			if err := st.PutRecipient(Recipient{ID: "mirror", Owner: "nobody"}); !errors.Is(err, ErrNotFound) {
				t.Errorf("PutRecipient(unknown owner) = %v, want ErrNotFound", err)
			}
			for _, bad := range []Recipient{{}, {ID: "a b", Owner: "acme"}, {ID: "a/b", Owner: "acme"}, {ID: "ok"}} {
				if err := st.PutRecipient(bad); err == nil {
					t.Errorf("PutRecipient(%+v) accepted", bad)
				}
			}
			if err := st.PutRecipient(Recipient{ID: "mirror", Owner: "acme", Note: "EU", CreatedUnix: 100}); err != nil {
				t.Fatal(err)
			}
			if err := st.PutRecipient(Recipient{ID: "archive", Owner: "acme", CreatedUnix: 200}); err != nil {
				t.Fatal(err)
			}
			// Re-put updates the note but keeps registration time and order.
			if err := st.PutRecipient(Recipient{ID: "mirror", Owner: "acme", Note: "EU-2", CreatedUnix: 300}); err != nil {
				t.Fatal(err)
			}
			rc, err := st.GetRecipient("acme", "mirror")
			if err != nil || rc.Note != "EU-2" || rc.CreatedUnix != 100 {
				t.Fatalf("GetRecipient after re-put = %+v, %v", rc, err)
			}
			if _, err := st.GetRecipient("acme", "ghost"); !errors.Is(err, ErrNotFound) {
				t.Errorf("GetRecipient(missing) = %v, want ErrNotFound", err)
			}
			rcs, err := st.ListRecipients("acme")
			if err != nil || len(rcs) != 2 || rcs[0].ID != "mirror" || rcs[1].ID != "archive" {
				t.Fatalf("ListRecipients = %+v, %v", rcs, err)
			}
			if rcs, _ := st.ListRecipients("zeta"); len(rcs) != 0 {
				t.Errorf("zeta has recipients: %+v", rcs)
			}
		})
	}
}

// TestFilePersistence: state written through one File handle is fully
// visible after reopening the same path.
func TestFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.jsonl")
	st, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutOwner(testOwner("acme")); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"r1", "r2", "r3"} {
		if err := st.AddReceipt(testReceipt("acme", id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs, err := re.ListReceipts("acme")
	if err != nil || len(recs) != 3 {
		t.Fatalf("after reopen: %d receipts, %v", len(recs), err)
	}
	if recs[2].Records[0].Query != "db/book[title='X']/year" {
		t.Errorf("receipt content lost: %+v", recs[2])
	}
	// And the reopened handle still appends.
	if err := re.AddReceipt(testReceipt("acme", "r4")); err != nil {
		t.Fatal(err)
	}
}

// TestFileRecipientPersistence: recipient records survive reopen,
// compaction, and carry their version tag in the log.
func TestFileRecipientPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.jsonl")
	st, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutOwner(testOwner("acme")); err != nil {
		t.Fatal(err)
	}
	if err := st.PutRecipient(Recipient{ID: "mirror", Owner: "acme", Note: "EU", CreatedUnix: 7}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutRecipient(Recipient{ID: "archive", Owner: "acme", CreatedUnix: 8}); err != nil {
		t.Fatal(err)
	}
	rec := testReceipt("acme", "fp-1")
	rec.Recipient = "mirror"
	if err := st.AddReceipt(rec); err != nil {
		t.Fatal(err)
	}
	st.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"t":"recipient","v":1`) {
		t.Errorf("recipient log line is not version-tagged:\n%s", data)
	}

	re, err := OpenFile(path, FileOptions{CompactOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rcs, err := re.ListRecipients("acme")
	if err != nil || len(rcs) != 2 || rcs[0].ID != "mirror" || rcs[0].Note != "EU" {
		t.Fatalf("recipients after compacted reopen = %+v, %v", rcs, err)
	}
	got, err := re.GetReceipt("acme", "fp-1")
	if err != nil || got.Recipient != "mirror" {
		t.Fatalf("fingerprint receipt lost its recipient: %+v, %v", got, err)
	}
}

// TestFileRecipientVersionGate: a recipient record from a newer build
// fails the open (it is not silently dropped).
func TestFileRecipientVersionGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.jsonl")
	st, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.PutOwner(testOwner("acme"))
	st.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"recipient","v":99,"recipient":{"id":"x","owner":"acme"}}` + "\n")
	// A valid line after it makes the versioned line mid-log damage,
	// which must fail loudly rather than vanish.
	f.WriteString(`{"t":"recipient","v":1,"recipient":{"id":"y","owner":"acme"}}` + "\n")
	f.Close()
	if _, err := OpenFile(path, FileOptions{}); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("open over future-versioned record = %v, want version error", err)
	}
}

// TestFileTornTail: a crash mid-append leaves a partial final line; the
// store must open cleanly with every acknowledged record intact.
func TestFileTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.jsonl")
	st, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutOwner(testOwner("acme")); err != nil {
		t.Fatal(err)
	}
	if err := st.AddReceipt(testReceipt("acme", "r1")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	for _, torn := range []string{
		`{"t":"receipt","receipt":{"id":"r2","ow`, // cut mid-record, no newline
		`{"t":"receipt","rec###garbage###`,        // cut into garbage
		"{\"t\":\"receipt\",\"receipt\":null}\n",  // terminated but unusable final line
	} {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(torn); err != nil {
			t.Fatal(err)
		}
		f.Close()

		re, err := OpenFile(path, FileOptions{})
		if err != nil {
			t.Fatalf("open with torn tail %q: %v", torn, err)
		}
		recs, err := re.ListReceipts("acme")
		if err != nil || len(recs) != 1 || recs[0].ID != "r1" {
			t.Fatalf("torn tail %q: receipts = %+v, %v", torn, recs, err)
		}
		// The tail was truncated away, so a fresh append lands on a
		// clean line boundary.
		if err := re.AddReceipt(testReceipt("acme", "x-"+torn[:4])); err != nil {
			t.Fatal(err)
		}
		re.Close()
		// Remove the extra receipt to keep iterations independent.
		resetTo(t, path, "acme", "r1")
	}
}

// resetTo rewrites the log to owner + a single receipt.
func resetTo(t *testing.T, path, owner, receipt string) {
	t.Helper()
	st, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mem := NewMemory()
	mem.PutOwner(testOwner(owner))
	mem.AddReceipt(testReceipt(owner, receipt))
	st.Memory = mem
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
}

// TestFileCorruptMiddleFails: damage before the end of the log is not
// silently dropped.
func TestFileCorruptMiddleFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.jsonl")
	st, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.PutOwner(testOwner("acme"))
	st.AddReceipt(testReceipt("acme", "r1"))
	st.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[0] = "###corrupt###\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, FileOptions{}); err == nil {
		t.Fatal("open succeeded over mid-log corruption")
	}
}

// TestFileCompact: compaction collapses superseded owner lines, keeps
// all live state, and the compacted log replays identically.
func TestFileCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.jsonl")
	st, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// 50 re-registrations of the same owner bloat the log.
	for i := 0; i < 50; i++ {
		o := testOwner("acme")
		o.Gamma = i + 1
		if err := st.PutOwner(o); err != nil {
			t.Fatal(err)
		}
	}
	st.AddReceipt(testReceipt("acme", "r1"))
	st.AddReceipt(testReceipt("acme", "r2"))
	before, _ := st.LogSize()
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := st.LogSize()
	if after >= before {
		t.Errorf("compaction did not shrink the log: %d -> %d bytes", before, after)
	}
	// State survives compaction in the live handle...
	if o, _ := st.GetOwner("acme"); o.Gamma != 50 {
		t.Errorf("owner after compact: %+v", o)
	}
	// ...and appends still work on the swapped file handle.
	if err := st.AddReceipt(testReceipt("acme", "r3")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	re, err := OpenFile(path, FileOptions{CompactOnOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs, err := re.ListReceipts("acme")
	if err != nil || len(recs) != 3 {
		t.Fatalf("after compacted reopen: %d receipts, %v", len(recs), err)
	}
	if o, _ := re.GetOwner("acme"); o.Gamma != 50 {
		t.Errorf("owner after compacted reopen: %+v", o)
	}
}

// TestFileNoSync exercises the NoSync fast path (same semantics, no
// per-append fsync).
func TestFileNoSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.jsonl")
	st, err := OpenFile(path, FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st.PutOwner(testOwner("acme"))
	st.AddReceipt(testReceipt("acme", "r1"))
	st.Close()
	re, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.GetReceipt("acme", "r1"); err != nil {
		t.Fatal(err)
	}
}
