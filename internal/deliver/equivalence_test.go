package deliver

// The splice-equivalence suite is the proof obligation of delivery-time
// fingerprinting: a spliced recipient copy must be BYTE-IDENTICAL to
// what the full parse+embed path produces for the same recipient — not
// just equivalent, identical — and tracing a spliced copy must accuse
// the same recipient with the same p-value. It extends the pattern of
// internal/stream's equivalence tests (prove the fast path against the
// reference path, then trust the fast path).

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wmxml/internal/datagen"
	"wmxml/internal/fingerprint"
	"wmxml/internal/xmltree"
)

// canonOpts is the canonical rendering the suite compiles plans for —
// the same Indent "  " every CLI and server response uses.
var canonOpts = xmltree.SerializeOptions{Indent: "  "}

func testFingerprinter(t testing.TB, ds *datagen.Dataset, key string, gamma int) *fingerprint.System {
	t.Helper()
	s, err := fingerprint.New(fingerprint.Options{
		Key:     []byte(key),
		Schema:  ds.Schema,
		Catalog: ds.Catalog,
		Targets: ds.Targets,
		Gamma:   gamma,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func serializeDoc(t testing.TB, doc *xmltree.Node) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := xmltree.Serialize(&buf, doc, canonOpts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstDiff locates the first differing byte for a readable failure.
func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo, hiA, hiB := max(0, i-40), min(len(a), i+40), min(len(b), i+40)
			return fmt.Sprintf("byte %d:\n  spliced: ...%q...\n  embed:   ...%q...", i, a[lo:hiA], b[lo:hiB])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d", len(a), len(b))
}

// TestSpliceEquivalence is the core property: for every preset × size ×
// recipient, Deliver(plan, r) == fingerprint.Embed(doc, r), byte for
// byte, and the reconstructed receipt matches the embed receipt field
// for field.
func TestSpliceEquivalence(t *testing.T) {
	recipients := []string{"r-alpha", "r-beta", "r-gamma", "acme corp", "r-delta"}
	for _, preset := range []string{"pubs", "jobs", "library", "nested"} {
		for _, size := range []int{20, 150} {
			t.Run(fmt.Sprintf("%s-%d", preset, size), func(t *testing.T) {
				ds, err := datagen.Preset(preset, size, 2005)
				if err != nil {
					t.Fatal(err)
				}
				fp := testFingerprinter(t, ds, "owner-key-6", 3)

				before := serializeDoc(t, ds.Doc)
				plan, canonical, err := Compile(ds.Doc, fp.PlanConfig(), canonOpts)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(before, canonical) {
					t.Fatal("canonical bytes differ from plain serialization")
				}
				if !bytes.Equal(serializeDoc(t, ds.Doc), before) {
					t.Fatal("Compile mutated the source document")
				}
				bound, err := plan.Bind(canonical)
				if err != nil {
					t.Fatal(err)
				}

				for _, r := range recipients {
					full := ds.Doc.Clone()
					res, err := fp.Embed(full, r)
					if err != nil {
						t.Fatalf("recipient %q: embed: %v", r, err)
					}
					want := serializeDoc(t, full)

					payload := fp.Payload(r)
					got, err := bound.AppendCopy(nil, payload)
					if err != nil {
						t.Fatalf("recipient %q: deliver: %v", r, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("recipient %q: spliced copy differs from full embed at %s", r, firstDiff(got, want))
					}

					// Streaming applier: same bytes from a reader.
					var sb bytes.Buffer
					if err := plan.ApplyReader(&sb, bytes.NewReader(canonical), payload); err != nil {
						t.Fatalf("recipient %q: ApplyReader: %v", r, err)
					}
					if !bytes.Equal(sb.Bytes(), want) {
						t.Fatalf("recipient %q: streamed copy differs from full embed at %s", r, firstDiff(sb.Bytes(), want))
					}

					// Receipt reconstruction: same tallies, same Q.
					rec, err := plan.Receipt(payload)
					if err != nil {
						t.Fatalf("recipient %q: receipt: %v", r, err)
					}
					if rec.Carriers != res.Carriers || rec.Embedded != res.Embedded || rec.Unembeddable != res.Unembeddable {
						t.Fatalf("recipient %q: tallies (%d,%d,%d) want (%d,%d,%d)", r,
							rec.Carriers, rec.Embedded, rec.Unembeddable, res.Carriers, res.Embedded, res.Unembeddable)
					}
					if !reflect.DeepEqual(rec.Bandwidth, res.Bandwidth) {
						t.Fatalf("recipient %q: bandwidth report differs", r)
					}
					if !reflect.DeepEqual(rec.Records, res.Records) {
						for i := range rec.Records {
							if i < len(res.Records) && !reflect.DeepEqual(rec.Records[i], res.Records[i]) {
								t.Fatalf("recipient %q: record %d differs:\n  plan:  %+v\n  embed: %+v", r, i, rec.Records[i], res.Records[i])
							}
						}
						t.Fatalf("recipient %q: %d records, embed has %d", r, len(rec.Records), len(res.Records))
					}
				}
			})
		}
	}
}

// TestPlanJSONRoundTrip: a plan survives its codec and still delivers
// identical bytes.
func TestPlanJSONRoundTrip(t *testing.T) {
	ds, err := datagen.Preset("pubs", 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	fp := testFingerprinter(t, ds, "rt-key", 3)
	plan, canonical, err := Compile(ds.Doc, fp.PlanConfig(), canonOpts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := plan.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, back) {
		t.Fatal("plan changed across JSON round trip")
	}
	b1, err := mustBind(t, plan, canonical).AppendCopy(nil, fp.Payload("r1"))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := mustBind(t, back, canonical).AppendCopy(nil, fp.Payload("r1"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("round-tripped plan delivers different bytes")
	}
}

func mustBind(t *testing.T, p *Plan, orig []byte) *Bound {
	t.Helper()
	b, err := p.Bind(orig)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTraceEquivalence: tracing a spliced copy accuses the same
// recipient with the same p-value as tracing the full-embed copy —
// both through the receipt's queries and blind.
func TestTraceEquivalence(t *testing.T) {
	ds, err := datagen.Preset("pubs", 250, 2005)
	if err != nil {
		t.Fatal(err)
	}
	fp := testFingerprinter(t, ds, "trace-key", 3)
	candidates := []string{"r-0", "r-1", "r-2", "r-3", "r-4", "r-5"}
	leaker := candidates[2]

	plan, canonical, err := Compile(ds.Doc, fp.PlanConfig(), canonOpts)
	if err != nil {
		t.Fatal(err)
	}
	spliced, err := mustBind(t, plan, canonical).AppendCopy(nil, fp.Payload(leaker))
	if err != nil {
		t.Fatal(err)
	}
	full := ds.Doc.Clone()
	res, err := fp.Embed(full, leaker)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := plan.Receipt(fp.Payload(leaker))
	if err != nil {
		t.Fatal(err)
	}

	splicedDoc, err := xmltree.Parse(bytes.NewReader(spliced), xmltree.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"queries", "blind"} {
		optsS := fingerprint.TraceOptions{}
		optsF := fingerprint.TraceOptions{}
		if mode == "queries" {
			optsS.Records = rec.Records
			optsF.Records = res.Records
		}
		trS, err := fp.Trace(splicedDoc, candidates, optsS)
		if err != nil {
			t.Fatalf("%s: trace spliced: %v", mode, err)
		}
		trF, err := fp.Trace(full, candidates, optsF)
		if err != nil {
			t.Fatalf("%s: trace full: %v", mode, err)
		}
		if !reflect.DeepEqual(trS.Accused, trF.Accused) {
			t.Fatalf("%s: accusations differ: spliced %v, full %v", mode, trS.Accused, trF.Accused)
		}
		if len(trS.Accused) == 0 || trS.Accused[0] != leaker {
			t.Fatalf("%s: spliced copy did not accuse the leaker: %v", mode, trS.Accused)
		}
		for i := range trS.Accusations {
			a, b := trS.Accusations[i], trF.Accusations[i]
			if a.Recipient != b.Recipient || a.PValue != b.PValue {
				t.Fatalf("%s: accusation %d differs: spliced %s p=%v, full %s p=%v",
					mode, i, a.Recipient, a.PValue, b.Recipient, b.PValue)
			}
		}
	}
	// Guard against silent emptiness: the matrix must actually mark.
	if plan.PayloadBits == 0 || len(plan.Sites) == 0 || strings.TrimSpace(string(spliced)) == "" {
		t.Fatal("degenerate plan")
	}
}
