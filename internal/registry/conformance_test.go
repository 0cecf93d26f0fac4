package registry

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// conformanceBackend describes one Store implementation for the
// behavioral matrix. Open returns a fresh empty store; Reopen (nil for
// backends with no independent persistence) closes the handle and
// reopens the same underlying data, proving replay fidelity.
type conformanceBackend struct {
	name   string
	open   func(t *testing.T) Store
	reopen func(t *testing.T, st Store) Store
}

// conformanceBackends builds the full matrix: Memory, File, Sharded
// (File logs per shard), and a Remote wired through a real HTTP round
// trip (httptest holder over a Memory store, TTL zero so every read
// revalidates — the strictest coherence setting).
func conformanceBackends(t *testing.T) []conformanceBackend {
	t.Helper()
	return []conformanceBackend{
		{
			name: "memory",
			open: func(t *testing.T) Store { return NewMemory() },
		},
		{
			name: "file",
			open: func(t *testing.T) Store {
				st, err := OpenFile(filepath.Join(t.TempDir(), "reg.jsonl"), FileOptions{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				return st
			},
			reopen: func(t *testing.T, st Store) Store {
				path := st.(*File).path
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := OpenFile(path, FileOptions{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				return re
			},
		},
		{
			name: "sharded",
			open: func(t *testing.T) Store {
				st, err := OpenSharded(filepath.Join(t.TempDir(), "reg"), 3, FileOptions{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				return st
			},
			reopen: func(t *testing.T, st Store) Store {
				dir := filepath.Dir(st.(*Sharded).shards[0].path)
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := OpenSharded(dir, 3, FileOptions{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				return re
			},
		},
		{
			name: "remote",
			open: func(t *testing.T) Store {
				holder := NewMemory()
				srv := httptest.NewServer(NewHTTPHandler(holder, "conformance-key"))
				t.Cleanup(srv.Close)
				rm, err := OpenRemote(srv.URL, RemoteOptions{Key: "conformance-key"})
				if err != nil {
					t.Fatal(err)
				}
				return rm
			},
			// Reopening a Remote = a second client against the same
			// holder: persistence here means holder state, not local.
			reopen: func(t *testing.T, st Store) Store {
				rm := st.(*Remote)
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := OpenRemote(rm.base, RemoteOptions{Key: "conformance-key"})
				if err != nil {
					t.Fatal(err)
				}
				return re
			},
		},
	}
}

// TestBackendConformance is the behavioral matrix of ISSUE 10: every
// backend must agree on owner, receipt, recipient and plan semantics —
// including the error vocabulary, duplicate-id handling, re-put
// time/order preservation, Compact, and replay after reopen.
func TestBackendConformance(t *testing.T) {
	for _, be := range conformanceBackends(t) {
		t.Run(be.name, func(t *testing.T) {
			st := be.open(t)
			closed := false
			t.Cleanup(func() {
				if !closed {
					st.Close()
				}
			})

			// --- owners ---
			if _, err := st.GetOwner("nobody"); !errors.Is(err, ErrNotFound) {
				t.Errorf("GetOwner(missing) = %v, want ErrNotFound", err)
			}
			if err := st.PutOwner(testOwner("acme")); err != nil {
				t.Fatal(err)
			}
			if err := st.PutOwner(testOwner("zeta")); err != nil {
				t.Fatal(err)
			}
			if err := st.PutOwner(testOwner("beta")); err != nil {
				t.Fatal(err)
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
			if err != nil || len(owners) != 3 || owners[0].ID != "acme" || owners[1].ID != "beta" || owners[2].ID != "zeta" {
				t.Fatalf("ListOwners = %+v, %v", owners, err)
			}

			// --- receipts ---
			for _, id := range []string{"r1", "r2", "r3"} {
				if err := st.AddReceipt(testReceipt("acme", id)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := st.GetReceipt("acme", "r9"); !errors.Is(err, ErrNotFound) {
				t.Errorf("GetReceipt(missing) = %v, want ErrNotFound", err)
			}
			r, err := st.GetReceipt("acme", "r2")
			if err != nil || r.Doc != "doc-r2" || len(r.Records) != 2 {
				t.Fatalf("GetReceipt = %+v, %v", r, err)
			}
			recs, err := st.ListReceipts("acme")
			if err != nil || len(recs) != 3 || recs[0].ID != "r1" || recs[2].ID != "r3" {
				t.Fatalf("ListReceipts = %+v, %v", recs, err)
			}
			if recs, err := st.ListReceipts("zeta"); err != nil || len(recs) != 0 {
				t.Errorf("zeta receipts = %+v, %v (want empty, nil)", recs, err)
			}
			if _, err := st.ListReceipts("nobody"); !errors.Is(err, ErrNotFound) {
				t.Errorf("ListReceipts(missing owner) = %v, want ErrNotFound", err)
			}

			// --- recipients ---
			if err := st.PutRecipient(Recipient{ID: "mirror", Owner: "acme", Note: "EU", CreatedUnix: 100}); err != nil {
				t.Fatal(err)
			}
			if err := st.PutRecipient(Recipient{ID: "archive", Owner: "acme", CreatedUnix: 200}); err != nil {
				t.Fatal(err)
			}
			if err := st.PutRecipient(Recipient{ID: "mirror", Owner: "acme", Note: "EU-2", CreatedUnix: 300}); err != nil {
				t.Fatal(err)
			}
			rc, err := st.GetRecipient("acme", "mirror")
			if err != nil || rc.Note != "EU-2" || rc.CreatedUnix != 100 {
				t.Fatalf("re-put recipient = %+v, %v (want note updated, time kept)", rc, err)
			}
			rcs, err := st.ListRecipients("acme")
			if err != nil || len(rcs) != 2 || rcs[0].ID != "mirror" || rcs[1].ID != "archive" {
				t.Fatalf("ListRecipients = %+v, %v", rcs, err)
			}

			// --- plans ---
			p1 := testPlan("acme", "d1")
			p1.CreatedUnix = 100
			p2 := testPlan("acme", "d2")
			p2.CreatedUnix = 200
			if err := st.PutPlan(p1); err != nil {
				t.Fatal(err)
			}
			if err := st.PutPlan(p2); err != nil {
				t.Fatal(err)
			}
			rePut := testPlan("acme", "d1")
			rePut.Doc = "d1-recompiled"
			rePut.CreatedUnix = 300
			if err := st.PutPlan(rePut); err != nil {
				t.Fatal(err)
			}
			gp, err := st.GetPlan("acme", p1.Digest)
			if err != nil || gp.Doc != "d1-recompiled" || gp.CreatedUnix != 100 {
				t.Fatalf("re-put plan = %+v, %v (want doc updated, time kept)", gp, err)
			}
			if _, err := st.GetPlan("acme", strings.Repeat("f", 64)); !errors.Is(err, ErrNotFound) {
				t.Errorf("GetPlan(missing) = %v, want ErrNotFound", err)
			}
			plans, err := st.ListPlans("acme")
			if err != nil || len(plans) != 2 || plans[0].Digest != p1.Digest || plans[1].Digest != p2.Digest {
				t.Fatalf("ListPlans = %+v, %v", plans, err)
			}
			if _, err := st.ListPlans("nobody"); !errors.Is(err, ErrNotFound) {
				t.Errorf("ListPlans(missing owner) = %v, want ErrNotFound", err)
			}

			// --- rejected writes: each fails and leaves the state as it
			// was, and a store with a log checks before it appends, so
			// none adds a byte to it (the reopen below replays the log) ---
			logSize := func() int64 {
				logged, ok := st.(interface{ LogSize() (int64, error) })
				if !ok {
					return 0
				}
				n, err := logged.LogSize()
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			size := logSize()
			bad := testPlan("acme", "d1")
			bad.Digest = strings.Repeat("0", 64)
			for _, rej := range []struct {
				name  string
				write func() error
				want  error // nil: any error
			}{
				{"PutOwner('/' in id)", func() error { return st.PutOwner(Owner{ID: "a/b", Key: "k", Mark: "m", Dataset: "pubs"}) }, nil},
				{"AddReceipt(no records)", func() error { return st.AddReceipt(Receipt{ID: "r4", Owner: "acme"}) }, nil},
				{"PutRecipient(space in id)", func() error { return st.PutRecipient(Recipient{ID: "a b", Owner: "acme"}) }, nil},
				{"PutPlan(mismatched digest)", func() error { return st.PutPlan(bad) }, nil},
				{"AddReceipt(unknown owner)", func() error { return st.AddReceipt(testReceipt("nobody", "r1")) }, ErrNotFound},
				{"PutRecipient(unknown owner)", func() error { return st.PutRecipient(Recipient{ID: "mirror", Owner: "nobody"}) }, ErrNotFound},
				{"PutPlan(unknown owner)", func() error { return st.PutPlan(testPlan("nobody", "d1")) }, ErrNotFound},
				{"AddReceipt(duplicate id)", func() error { return st.AddReceipt(testReceipt("acme", "r2")) }, ErrDuplicate},
			} {
				if err := rej.write(); err == nil {
					t.Errorf("%s accepted", rej.name)
				} else if rej.want != nil && !errors.Is(err, rej.want) {
					t.Errorf("%s = %v, want %v", rej.name, err, rej.want)
				}
				if n := logSize(); n != size {
					t.Errorf("rejected %s grew the log from %d to %d bytes", rej.name, size, n)
				}
			}
			assertConformanceState(t, st)
			if recs, err := st.ListReceipts("acme"); err != nil || len(recs) != 3 {
				t.Fatalf("receipts after rejected writes = %+v, %v (want r1..r3)", recs, err)
			}

			// --- Compact, where supported: state must be unchanged ---
			if c, ok := st.(interface{ Compact() error }); ok {
				if err := c.Compact(); err != nil {
					t.Fatal(err)
				}
				assertConformanceState(t, st)
				// The store stays appendable on the swapped handle.
				if err := st.AddReceipt(testReceipt("acme", "post-compact")); err != nil {
					t.Fatal(err)
				}
				if got, err := st.GetReceipt("acme", "post-compact"); err != nil || got.ID != "post-compact" {
					t.Fatalf("append after compact: %+v, %v", got, err)
				}
			} else {
				if err := st.AddReceipt(testReceipt("acme", "post-compact")); err != nil {
					t.Fatal(err)
				}
			}

			// --- replay: everything above survives a reopen ---
			if be.reopen != nil {
				st = be.reopen(t, st)
				closed = true
				defer st.Close()
				assertConformanceState(t, st)
				if got, err := st.GetReceipt("acme", "post-compact"); err != nil || got.ID != "post-compact" {
					t.Fatalf("post-compact receipt lost across reopen: %+v, %v", got, err)
				}
			}
		})
	}
}

// assertConformanceState checks the invariant state the matrix built:
// 3 owners, acme's receipts r1..r3, recipients mirror+archive with the
// re-put semantics applied, plans d1 (recompiled, original time) + d2.
func assertConformanceState(t *testing.T, st Store) {
	t.Helper()
	owners, err := st.ListOwners()
	if err != nil || len(owners) != 3 || owners[0].ID != "acme" || owners[0].Gamma != 9 {
		t.Fatalf("owners = %+v, %v", owners, err)
	}
	recs, err := st.ListReceipts("acme")
	if err != nil || len(recs) < 3 || recs[0].ID != "r1" || recs[1].ID != "r2" || recs[2].ID != "r3" {
		t.Fatalf("receipts = %+v, %v", recs, err)
	}
	rcs, err := st.ListRecipients("acme")
	if err != nil || len(rcs) != 2 || rcs[0].Note != "EU-2" || rcs[0].CreatedUnix != 100 {
		t.Fatalf("recipients = %+v, %v", rcs, err)
	}
	plans, err := st.ListPlans("acme")
	if err != nil || len(plans) != 2 || plans[0].Doc != "d1-recompiled" || plans[0].CreatedUnix != 100 {
		t.Fatalf("plans = %+v, %v", plans, err)
	}
	if err := plans[0].Validate(); err != nil {
		t.Fatalf("stored plan no longer validates: %v", err)
	}
}

// TestConformanceReplayCorpus reuses the FuzzReplay seed corpus across
// backends: for every seed a File accepts, the replayed state is
// written into each other backend and must list back identically.
func TestConformanceReplayCorpus(t *testing.T) {
	for i, seed := range replaySeeds {
		t.Run(fmt.Sprintf("seed-%d", i), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "seed.jsonl")
			if err := os.WriteFile(path, []byte(seed), 0o600); err != nil {
				t.Fatal(err)
			}
			ref, err := OpenFile(path, FileOptions{NoSync: true})
			if err != nil {
				t.Skipf("seed rejected by File (expected for corrupt seeds): %v", err)
			}
			defer ref.Close()
			owners, _ := ref.ListOwners()
			for _, be := range conformanceBackends(t) {
				if be.name == "file" {
					continue // the reference itself
				}
				t.Run(be.name, func(t *testing.T) {
					st := be.open(t)
					defer st.Close()
					for _, o := range owners {
						if err := st.PutOwner(o); err != nil {
							t.Fatal(err)
						}
						rcs, _ := ref.ListRecipients(o.ID)
						for _, rc := range rcs {
							if err := st.PutRecipient(rc); err != nil {
								t.Fatal(err)
							}
						}
						recs, _ := ref.ListReceipts(o.ID)
						for _, r := range recs {
							if err := st.AddReceipt(r); err != nil {
								t.Fatal(err)
							}
						}
					}
					for _, o := range owners {
						wantRcs, _ := ref.ListRecipients(o.ID)
						gotRcs, err := st.ListRecipients(o.ID)
						if err != nil || len(gotRcs) != len(wantRcs) {
							t.Fatalf("recipients of %q: got %+v, %v, want %+v", o.ID, gotRcs, err, wantRcs)
						}
						for j := range wantRcs {
							if gotRcs[j] != wantRcs[j] {
								t.Fatalf("recipient %d of %q diverges: got %+v want %+v", j, o.ID, gotRcs[j], wantRcs[j])
							}
						}
						wantRecs, _ := ref.ListReceipts(o.ID)
						gotRecs, err := st.ListReceipts(o.ID)
						if err != nil || len(gotRecs) != len(wantRecs) {
							t.Fatalf("receipts of %q: got %+v, %v, want %+v", o.ID, gotRecs, err, wantRecs)
						}
						for j := range wantRecs {
							if gotRecs[j].ID != wantRecs[j].ID || gotRecs[j].Recipient != wantRecs[j].Recipient {
								t.Fatalf("receipt %d of %q diverges: got %+v want %+v", j, o.ID, gotRecs[j], wantRecs[j])
							}
						}
					}
				})
			}
		})
	}
}
