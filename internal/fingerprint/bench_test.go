package fingerprint

import (
	"fmt"
	"testing"

	"wmxml/internal/core"
	"wmxml/internal/datagen"
	"wmxml/internal/index"
	"wmxml/internal/xmltree"
)

// benchFixture builds a fingerprinted 1000-record suspect, its shared
// index, one receipt, and a 20-recipient candidate list.
func benchFixture(b *testing.B) (*System, *xmltree.Node, *index.Index, []core.QueryRecord, []string) {
	b.Helper()
	ds := datagen.Publications(datagen.PubConfig{Books: 1000, Seed: 99})
	s, err := New(Options{
		Key:     []byte("bench-key"),
		Schema:  ds.Schema,
		Catalog: ds.Catalog,
		Targets: ds.Targets,
		Gamma:   2,
	})
	if err != nil {
		b.Fatal(err)
	}
	doc := ds.Doc.Clone()
	rec, err := s.Embed(doc, "leaker")
	if err != nil {
		b.Fatal(err)
	}
	candidates := make([]string, 20)
	for i := range candidates {
		candidates[i] = fmt.Sprintf("recipient-%02d", i)
	}
	candidates[7] = "leaker"
	return s, doc, index.New(doc), rec.Records, candidates
}

// BenchmarkTraceSweep20 measures the tentpole hot path: tracing one
// suspect against 20 recipients decodes the document ONCE (one parsed
// tree, one DocumentIndex, one query execution pass) and then runs 20
// bit-vector correlations.
func BenchmarkTraceSweep20(b *testing.B) {
	s, doc, ix, records, candidates := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := core.CompileDecodePlan(s.PlanConfig(), records, nil)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Trace(doc, candidates, TraceOptions{Plan: plan, Index: ix})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Accused) != 1 {
			b.Fatalf("accused = %v", res.Accused)
		}
	}
	b.ReportMetric(20, "recipients/op")
}

// BenchmarkPerRecipientDetectSweep20 is the naive baseline the trace
// design replaces: one full detection per recipient (each re-executing
// every query), even granting it the shared document index. The gap to
// BenchmarkTraceSweep20 is the measured value of decode-once tracing.
func BenchmarkPerRecipientDetectSweep20(b *testing.B) {
	s, doc, ix, records, candidates := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := 0
		for _, cand := range candidates {
			cfg := s.configFor(s.Payload(cand))
			plan, err := core.CompileDecodePlan(cfg, records, nil)
			if err != nil {
				b.Fatal(err)
			}
			res := plan.Detect(doc, ix)
			if res.Detected {
				hits++
			}
		}
		if hits != 1 {
			b.Fatalf("detected %d candidates, want 1", hits)
		}
	}
	b.ReportMetric(20, "recipients/op")
}
