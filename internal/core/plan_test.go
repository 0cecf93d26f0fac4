package core

// DecodePlan equivalence and allocation discipline. The plan is an
// optimization with a hard contract: votes, counters and verdicts must
// be bit-for-bit identical to the one-shot decode path at any
// concurrency, and the warm sequential decode (cached index, compiled
// plan) must stay near zero allocations — the property the serving
// layer's latency target rests on.

import (
	"sync"
	"testing"

	"wmxml/internal/datagen"
	"wmxml/internal/index"
	"wmxml/internal/wmark"
	"wmxml/internal/xmltree"
)

// sameVotes compares two vote tables bit by bit.
func sameVotes(t *testing.T, got, want *wmark.Votes) {
	t.Helper()
	if got.Len() != want.Len() || got.Total() != want.Total() || got.Misses() != want.Misses() {
		t.Fatalf("vote table shape: got len=%d total=%d misses=%d, want len=%d total=%d misses=%d",
			got.Len(), got.Total(), got.Misses(), want.Len(), want.Total(), want.Misses())
	}
	for i := 0; i < want.Len(); i++ {
		go1, gz := got.Counts(i)
		wo, wz := want.Counts(i)
		if go1 != wo || gz != wz {
			t.Fatalf("bit %d: got %d/%d, want %d/%d", i, go1, gz, wo, wz)
		}
	}
}

func sameDecode(t *testing.T, got, want *DecodeResult) {
	t.Helper()
	sameVotes(t, got.Votes, want.Votes)
	if got.QueriesRun != want.QueriesRun || got.QueryMisses != want.QueryMisses || got.RewriteErrors != want.RewriteErrors {
		t.Fatalf("decode counters: got %d/%d/%d, want %d/%d/%d",
			got.QueriesRun, got.QueryMisses, got.RewriteErrors,
			want.QueriesRun, want.QueryMisses, want.RewriteErrors)
	}
}

// planFixture embeds a pubs document and returns the marked doc, its
// index, the compiled plan, and the baseline decode produced with the
// index (and therefore the scratch evaluator) disabled — the
// tree-walking path the fast machinery must agree with exactly.
type planFixtureOut struct {
	cfg      Config
	doc      *xmltree.Node
	ix       *index.Index
	records  []QueryRecord
	plan     *DecodePlan
	baseline *DecodeResult
}

func planFixture(t *testing.T, books int) planFixtureOut {
	t.Helper()
	ds := datagen.Publications(datagen.PubConfig{Books: books, Editors: 20, Publishers: 5, Seed: 11})
	cfg := pubConfig(ds, "plan-key", "plan-mark")
	doc := ds.Doc.Clone()
	er, err := Embed(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := cfg
	refCfg.DisableIndex = true
	baseline, err := DecodeWithQueriesIndexed(doc, refCfg, er.Records, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileDecodePlan(cfg, er.Records, nil)
	if err != nil {
		t.Fatal(err)
	}
	return planFixtureOut{cfg: cfg, doc: doc, ix: index.New(doc), records: er.Records, plan: plan, baseline: baseline}
}

func TestDecodePlanMatchesBaseline(t *testing.T) {
	fx := planFixture(t, 200)
	// Repeated decodes through the same plan, index and pools: every
	// one must reproduce the tree-walking baseline exactly.
	for i := 0; i < 5; i++ {
		sameDecode(t, fx.plan.Decode(fx.doc, fx.ix), fx.baseline)
	}
	det := fx.plan.Detect(fx.doc, fx.ix)
	if !det.Detected || det.MatchFraction != 1.0 {
		t.Fatalf("plan verdict: %+v", det.Result)
	}
	// The concurrent decode path (workers > 1, pooled vote tables)
	// must produce the same table.
	ccfg := fx.cfg
	ccfg.Concurrency = 4
	cplan, err := CompileDecodePlan(ccfg, fx.records, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameDecode(t, cplan.Decode(fx.doc, fx.ix), fx.baseline)
}

func TestDecodePlanConcurrentDecodesIdentical(t *testing.T) {
	fx := planFixture(t, 120)
	const goroutines, reps = 8, 25
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				dec := fx.plan.Decode(fx.doc, fx.ix)
				if dec.Votes.Total() != fx.baseline.Votes.Total() || dec.QueriesRun != fx.baseline.QueriesRun {
					errs <- "diverged"
					return
				}
				for b := 0; b < dec.Votes.Len(); b++ {
					o, z := dec.Votes.Counts(b)
					wo, wz := fx.baseline.Votes.Counts(b)
					if o != wo || z != wz {
						errs <- "vote mismatch"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// BenchmarkDecodePlanWarm measures the steady-state warm decode:
// compiled plan, cached index, pooled buffers.
func BenchmarkDecodePlanWarm(b *testing.B) {
	ds := datagen.Publications(datagen.PubConfig{Books: 200, Editors: 20, Publishers: 5, Seed: 11})
	cfg := pubConfig(ds, "plan-key", "plan-mark")
	doc := ds.Doc.Clone()
	er, err := Embed(doc, cfg)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := CompileDecodePlan(cfg, er.Records, nil)
	if err != nil {
		b.Fatal(err)
	}
	ix := index.New(doc)
	plan.Decode(doc, ix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Decode(doc, ix)
	}
}

// TestDecodePlanWarmAllocs pins the steady-state allocation budget of
// the warm path: compiled plan, cached index, sequential decode. The
// remaining allocations are the result objects that outlive the call
// (DecodeResult + its vote table's three pieces, and for Detect the
// scored result) plus small per-call residue; 16 is the ceiling the
// serving layer's latency target assumes. Detect on 1000 records is the
// serving shape: one warm /v1/detect of a 1k-record document.
func TestDecodePlanWarmAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		books int
		run   func(p *DecodePlan, doc *xmltree.Node, ix *index.Index)
	}{
		{"decode-200", 200, func(p *DecodePlan, doc *xmltree.Node, ix *index.Index) { p.Decode(doc, ix) }},
		{"detect-1000", 1000, func(p *DecodePlan, doc *xmltree.Node, ix *index.Index) { p.Detect(doc, ix) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := planFixture(t, tc.books)
			tc.run(fx.plan, fx.doc, fx.ix) // warm pools and lazy kv tables
			avg := testing.AllocsPerRun(100, func() {
				tc.run(fx.plan, fx.doc, fx.ix)
			})
			if avg > 16 {
				t.Fatalf("warm plan %s allocates %.1f objects/op, budget is 16", tc.name, avg)
			}
			t.Logf("warm plan %s: %.1f allocs/op", tc.name, avg)
		})
	}
}

// TestDecodePlanTracedNoopAllocs pins the cost of the tracing hooks
// when tracing is off: DetectTraced with a nil *obs.Trace must cost no
// more than two allocations over the same decode and score without the
// span calls. The span calls compile to nil-receiver checks; budget +2
// absorbs run-to-run noise, not real work.
func TestDecodePlanTracedNoopAllocs(t *testing.T) {
	fx := planFixture(t, 200)
	fx.plan.Detect(fx.doc, fx.ix) // warm pools and lazy kv tables
	base := testing.AllocsPerRun(100, func() {
		ScoreDecode(fx.plan.Decode(fx.doc, fx.ix), fx.plan.Config())
	})
	traced := testing.AllocsPerRun(100, func() {
		fx.plan.DetectTraced(fx.doc, fx.ix, nil)
	})
	if traced > base+2 {
		t.Fatalf("nil-trace DetectTraced allocates %.1f objects/op vs %.1f untraced — telemetry must be free when off", traced, base)
	}
	t.Logf("warm detect: %.1f allocs/op untraced, %.1f with nil trace", base, traced)
}
