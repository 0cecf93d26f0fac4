package registry

// Plan-store durability: delivery plans are what lets /v1/deliver skip
// parsing entirely, so a stale, torn or mutated plan record is a
// correctness hazard, not an inconvenience. These tests hold the plan
// records to the same rigor the receipt log gets: torn-tail replay,
// future-version rejection, digest-mismatch refusal and Compact
// round-trips.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testPlan builds a valid plan record: the digest really names the
// canonical bytes, and the plan body is opaque-but-wellformed JSON.
func testPlan(owner, label string) PlanRecord {
	canonical := []byte("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<db>" + label + "</db>\n")
	sum := sha256.Sum256(canonical)
	return PlanRecord{
		Owner:     owner,
		Digest:    hex.EncodeToString(sum[:]),
		Doc:       "doc-" + label,
		Canonical: canonical,
		Plan:      json.RawMessage(`{"version":1,"payload_bits":4,"sites":[]}`),
	}
}

func TestPlanStoreConformance(t *testing.T) {
	for name, st := range openStores(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.PutOwner(testOwner("acme")); err != nil {
				t.Fatal(err)
			}
			// Owner gating.
			if err := st.PutPlan(testPlan("nobody", "a")); !errors.Is(err, ErrNotFound) {
				t.Errorf("PutPlan(unknown owner) = %v, want ErrNotFound", err)
			}
			if _, err := st.ListPlans("nobody"); !errors.Is(err, ErrNotFound) {
				t.Errorf("ListPlans(unknown owner) = %v, want ErrNotFound", err)
			}
			// Invalid records refused before they touch the log: missing
			// fields and — the critical one — a digest that does not
			// match the canonical bytes.
			mismatched := testPlan("acme", "a")
			mismatched.Canonical = append(mismatched.Canonical, ' ')
			for _, bad := range []PlanRecord{
				{},
				{Owner: "acme"},
				{Owner: "acme", Digest: "abcd"},
				{Owner: "acme", Digest: strings.Repeat("0", 64)},
				{Owner: "acme", Digest: strings.Repeat("0", 64), Plan: json.RawMessage(`{}`)},
				mismatched,
			} {
				if err := st.PutPlan(bad); err == nil {
					t.Errorf("PutPlan(%.60v...) accepted", bad)
				}
			}
			// Store, fetch, list, replace.
			pa, pb := testPlan("acme", "a"), testPlan("acme", "b")
			pa.CreatedUnix, pb.CreatedUnix = 100, 200
			if err := st.PutPlan(pa); err != nil {
				t.Fatal(err)
			}
			if err := st.PutPlan(pb); err != nil {
				t.Fatal(err)
			}
			got, err := st.GetPlan("acme", pa.Digest)
			if err != nil || got.Doc != "doc-a" || string(got.Canonical) == "" {
				t.Fatalf("GetPlan = %+v, %v", got, err)
			}
			if _, err := st.GetPlan("acme", strings.Repeat("f", 64)); !errors.Is(err, ErrNotFound) {
				t.Errorf("GetPlan(missing digest) = %v, want ErrNotFound", err)
			}
			// Re-putting the same digest replaces the payload but keeps
			// the original store time and ordering.
			pa2 := testPlan("acme", "a")
			pa2.Doc = "doc-a-v2"
			pa2.CreatedUnix = 999
			if err := st.PutPlan(pa2); err != nil {
				t.Fatal(err)
			}
			got, _ = st.GetPlan("acme", pa.Digest)
			if got.Doc != "doc-a-v2" || got.CreatedUnix != 100 {
				t.Errorf("re-put plan: %+v, want doc-a-v2 at CreatedUnix 100", got)
			}
			plans, err := st.ListPlans("acme")
			if err != nil || len(plans) != 2 || plans[0].Digest != pa.Digest || plans[1].Digest != pb.Digest {
				t.Fatalf("ListPlans = %d plans, %v", len(plans), err)
			}
		})
	}
}

// TestFilePlanPersistence: plans survive close/reopen and Compact, and
// Compact shrinks a log bloated by recompiles of the same document.
func TestFilePlanPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.jsonl")
	st, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.PutOwner(testOwner("acme"))
	// The same doc recompiled many times: one live plan, many log lines.
	for i := 0; i < 40; i++ {
		p := testPlan("acme", "hot")
		p.Doc = fmt.Sprintf("doc-rev-%d", i)
		if err := st.PutPlan(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PutPlan(testPlan("acme", "cold")); err != nil {
		t.Fatal(err)
	}
	st.AddReceipt(testReceipt("acme", "r1"))
	st.Close()

	re, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plans, err := re.ListPlans("acme")
	if err != nil || len(plans) != 2 {
		t.Fatalf("after reopen: %d plans, %v", len(plans), err)
	}
	if plans[0].Doc != "doc-rev-39" {
		t.Errorf("replay did not keep the last re-put: %+v", plans[0])
	}
	before, _ := re.LogSize()
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := re.LogSize()
	if after >= before {
		t.Errorf("compaction did not shrink the plan-bloated log: %d -> %d", before, after)
	}
	re.Close()

	// The compacted log replays to the same live state.
	re2, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	plans, err = re2.ListPlans("acme")
	if err != nil || len(plans) != 2 || plans[0].Doc != "doc-rev-39" {
		t.Fatalf("after compacted reopen: %+v, %v", plans, err)
	}
	if recs, err := re2.ListReceipts("acme"); err != nil || len(recs) != 1 {
		t.Fatalf("receipts lost across plan compaction: %+v, %v", recs, err)
	}
}

// TestFilePlanTornTail: a crash mid-append of a plan line must truncate
// away cleanly, keeping every acknowledged plan.
func TestFilePlanTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reg.jsonl")
	st, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.PutOwner(testOwner("acme"))
	good := testPlan("acme", "kept")
	if err := st.PutPlan(good); err != nil {
		t.Fatal(err)
	}
	st.Close()

	for _, torn := range []string{
		`{"t":"plan","v":1,"plan":{"owner":"acme","dig`,            // cut mid-record
		"{\"t\":\"plan\",\"v\":1,\"plan\":null}\n",                 // terminated but unusable
		"{\"t\":\"plan\",\"v\":1,\"plan\":{\"owner\":\"acme\"}}\n", // terminated, fails validation
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
			t.Fatalf("open with torn plan tail %q: %v", torn, err)
		}
		plans, err := re.ListPlans("acme")
		if err != nil || len(plans) != 1 || plans[0].Digest != good.Digest {
			t.Fatalf("torn tail %q: plans = %+v, %v", torn, plans, err)
		}
		// Appends land on a clean boundary afterwards.
		if err := re.PutPlan(testPlan("acme", "fresh")); err != nil {
			t.Fatal(err)
		}
		re.Close()
		resetPlanLog(t, path, good)
	}
}

// resetPlanLog rewrites the log to owner acme + one plan.
func resetPlanLog(t *testing.T, path string, p PlanRecord) {
	t.Helper()
	st, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mem := NewMemory()
	mem.PutOwner(testOwner("acme"))
	mem.PutPlan(p)
	st.Memory = mem
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
}

// TestFilePlanVersionGate: a plan record from a future build fails the
// open when it is mid-log (real damage), and is dropped when it is the
// final line (torn write).
func TestFilePlanVersionGate(t *testing.T) {
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
	f.WriteString(`{"t":"plan","v":99,"plan":{"owner":"acme"}}` + "\n")
	f.WriteString(`{"t":"recipient","v":1,"recipient":{"id":"y","owner":"acme"}}` + "\n")
	f.Close()
	if _, err := OpenFile(path, FileOptions{}); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("open over future-versioned plan record = %v, want version error", err)
	}
}
