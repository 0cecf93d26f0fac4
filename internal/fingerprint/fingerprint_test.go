package fingerprint

import (
	"fmt"
	"testing"

	"wmxml/internal/core"
	"wmxml/internal/datagen"
	"wmxml/internal/index"
)

func testSystem(t *testing.T, ds *datagen.Dataset, key string) *System {
	t.Helper()
	s, err := New(Options{
		Key:     []byte(key),
		Schema:  ds.Schema,
		Catalog: ds.Catalog,
		Targets: ds.Targets,
		Gamma:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pubs(t *testing.T, books int, seed int64) *datagen.Dataset {
	t.Helper()
	return datagen.Publications(datagen.PubConfig{Books: books, Seed: seed})
}

func TestCodesKeyedAndDeterministic(t *testing.T) {
	ds := pubs(t, 10, 41)
	s1 := testSystem(t, ds, "owner-key")
	s2 := testSystem(t, ds, "owner-key")
	s3 := testSystem(t, ds, "other-key")

	if !s1.Code("acme").Equal(s2.Code("acme")) {
		t.Error("same key + recipient must derive the same code")
	}
	if s1.Code("acme").Equal(s1.Code("bcorp")) {
		t.Error("different recipients must get different codes")
	}
	if s1.Code("acme").Equal(s3.Code("acme")) {
		t.Error("different keys must derive different codes")
	}
	if got := len(s1.Code("acme")); got != s1.BaseBits() {
		t.Errorf("code length = %d, want %d", got, s1.BaseBits())
	}
	if got := len(s1.Payload("acme")); got != s1.PayloadBits() {
		t.Errorf("payload length = %d, want %d", got, s1.PayloadBits())
	}
	// The payload is the base code replicated.
	base, pay := s1.Code("acme"), s1.Payload("acme")
	for i, b := range pay {
		if b != base[i%len(base)] {
			t.Fatalf("payload bit %d does not replicate the base code", i)
		}
	}
}

// TestSingleLeakerTrace pins the no-collusion case: a copy handed to
// one recipient traces back to exactly that recipient, both blind and
// through a safeguarded query set.
func TestSingleLeakerTrace(t *testing.T) {
	ds := pubs(t, 300, 42)
	s := testSystem(t, ds, "owner-key")
	recipients := make([]string, 8)
	for i := range recipients {
		recipients[i] = fmt.Sprintf("recipient-%d", i)
	}

	leaker := recipients[3]
	copyDoc := ds.Doc.Clone()
	rec, err := s.Embed(copyDoc, leaker)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Carriers == 0 {
		t.Fatal("no carriers selected")
	}

	plan, err := core.CompileDecodePlan(s.PlanConfig(), rec.Records, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]TraceOptions{
		"blind":   {},
		"records": {Plan: plan},
	} {
		res, err := s.Trace(copyDoc, recipients, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Accused) != 1 || res.Accused[0] != leaker {
			t.Errorf("%s: accused = %v, want exactly [%s]", name, res.Accused, leaker)
		}
		if top := res.Accusations[0]; top.Recipient != leaker || top.MatchFraction < 0.99 {
			t.Errorf("%s: top accusation %+v, want %s at ~1.0", name, top, leaker)
		}
		for _, a := range res.Accusations[1:] {
			if a.Accused {
				t.Errorf("%s: innocent %s accused (p=%g)", name, a.Recipient, a.PValue)
			}
		}
	}
}

// TestTraceUnmarkedDocument: a virgin document accuses nobody.
func TestTraceUnmarkedDocument(t *testing.T) {
	ds := pubs(t, 300, 43)
	s := testSystem(t, ds, "owner-key")
	recipients := []string{"a", "b", "c", "d", "e"}
	res, err := s.Trace(ds.Doc, recipients, TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accused) != 0 {
		t.Errorf("virgin document accused %v", res.Accused)
	}
}

// TestTraceSweepSharesOneDecode pins the efficiency contract: the
// candidate count does not change how many queries run — the decode
// happens once and candidates only add bit comparisons.
func TestTraceSweepSharesOneDecode(t *testing.T) {
	ds := pubs(t, 200, 44)
	s := testSystem(t, ds, "owner-key")
	copyDoc := ds.Doc.Clone()
	rec, err := s.Embed(copyDoc, "leaker")
	if err != nil {
		t.Fatal(err)
	}
	ix := index.New(copyDoc)
	plan, err := core.CompileDecodePlan(s.PlanConfig(), rec.Records, nil)
	if err != nil {
		t.Fatal(err)
	}
	one, err := s.Trace(copyDoc, []string{"leaker"}, TraceOptions{Plan: plan, Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	many := []string{"leaker"}
	for i := 0; i < 19; i++ {
		many = append(many, fmt.Sprintf("innocent-%d", i))
	}
	wide, err := s.Trace(copyDoc, many, TraceOptions{Plan: plan, Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	if one.QueriesRun != wide.QueriesRun {
		t.Errorf("queries run changed with candidate count: %d vs %d", one.QueriesRun, wide.QueriesRun)
	}
	if len(wide.Accusations) != 20 {
		t.Errorf("accusations = %d, want 20", len(wide.Accusations))
	}
	if wide.Accusations[0].Recipient != "leaker" {
		t.Errorf("top ranked = %s, want leaker", wide.Accusations[0].Recipient)
	}
	// Bonferroni: the wide sweep's threshold is 20x stricter.
	if wide.Threshold >= one.Threshold {
		t.Errorf("threshold not corrected for candidates: %g vs %g", wide.Threshold, one.Threshold)
	}
}

func TestTraceNoCandidates(t *testing.T) {
	ds := pubs(t, 10, 45)
	s := testSystem(t, ds, "owner-key")
	if _, err := s.Trace(ds.Doc, nil, TraceOptions{}); err == nil {
		t.Fatal("expected an error for an empty candidate list")
	}
}

func TestNewValidation(t *testing.T) {
	ds := pubs(t, 10, 46)
	if _, err := New(Options{Schema: ds.Schema}); err == nil {
		t.Error("missing key must fail")
	}
	if _, err := New(Options{Key: []byte("k")}); err == nil {
		t.Error("missing schema must fail")
	}
}
