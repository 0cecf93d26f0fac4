package wmxml

// Public-surface tests for the PR-2 index layer: parse options, the
// document index, indexed detection, and pipeline verification.

import (
	"context"
	"strings"
	"testing"
)

func TestParseXMLWithOptions(t *testing.T) {
	src := "<db>\n  <!-- a comment -->\n  <book><title>T</title></book>\n</db>"
	plain, err := ParseXML(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plain.Root().Children); got != 1 {
		t.Fatalf("default parse kept %d children, want 1", got)
	}
	kept, err := ParseXMLWithOptions(strings.NewReader(src), ParseOptions{KeepComments: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(kept.Root().Children); got != 2 {
		t.Fatalf("KeepComments parse kept %d children, want 2", got)
	}
}

func TestDetectIndexedPublicAPI(t *testing.T) {
	ds := PublicationsDataset(150, 77)
	sys, err := New(Options{
		Key: "api-key", Mark: "api-mark", Schema: ds.Schema,
		Catalog: ds.Catalog, Targets: ds.Targets, Gamma: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := ds.Doc.Clone()
	receipt, err := sys.Embed(doc)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewDocumentIndex(doc)
	det, err := sys.DetectIndexed(doc, receipt.Records, nil, ix)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.Detect(doc, receipt.Records, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *det != *plain {
		t.Fatalf("indexed %+v != plain %+v", det, plain)
	}
	blind, err := sys.DetectBlindIndexed(doc, ix)
	if err != nil {
		t.Fatal(err)
	}
	if !blind.Detected {
		t.Fatalf("blind indexed: %+v", blind)
	}
}

// TestDetectionPlanWarmAllocs pins the public warm detect (compiled
// plan, cached index, 1000 records) at the same 16-allocation ceiling
// as the core plan: the verdict conversion must not eat the budget.
func TestDetectionPlanWarmAllocs(t *testing.T) {
	ds := PublicationsDataset(1000, 77)
	sys, err := New(Options{
		Key: "api-key", Mark: "api-mark", Schema: ds.Schema,
		Catalog: ds.Catalog, Targets: ds.Targets, Gamma: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	receipt, err := sys.Embed(ds.Doc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.CompileDetection(receipt.Records, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewDocumentIndex(ds.Doc)
	if det := plan.DetectIndexed(ds.Doc, ix); !det.Detected {
		t.Fatalf("warm plan detect: %+v", det)
	}
	avg := testing.AllocsPerRun(100, func() { plan.DetectIndexed(ds.Doc, ix) })
	if avg > 16 {
		t.Fatalf("warm DetectIndexed allocates %.1f objects/op, budget is 16", avg)
	}
	t.Logf("warm DetectIndexed: %.1f allocs/op", avg)
}

func TestPipelineVerifyPublicAPI(t *testing.T) {
	ds := PublicationsDataset(100, 41)
	sys, err := New(Options{
		Key: "pl-key", Mark: "pl-mark", Schema: ds.Schema,
		Catalog: ds.Catalog, Targets: ds.Targets, Gamma: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeline(sys, PipelineOptions{Workers: 2, Verify: true})
	outs, err := pl.EmbedBatch(context.Background(), []*Document{ds.Doc.Clone(), ds.Doc.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Err != nil || o.VerifyErr != nil {
			t.Fatalf("outcome %s: err=%v verifyErr=%v", o.ID, o.Err, o.VerifyErr)
		}
		if o.Verify == nil || !o.Verify.Detected || o.Verify.MatchFraction != 1.0 {
			t.Fatalf("outcome %s: verify = %+v", o.ID, o.Verify)
		}
	}
}

func TestDisableIndexEquivalentPublicAPI(t *testing.T) {
	ds := PublicationsDataset(120, 55)
	build := func(disable bool) (*Detection, error) {
		sys, err := New(Options{
			Key: "di-key", Mark: "di-mark", Schema: ds.Schema,
			Catalog: ds.Catalog, Targets: ds.Targets, Gamma: 4, DisableIndex: disable,
		})
		if err != nil {
			return nil, err
		}
		doc := ds.Doc.Clone()
		receipt, err := sys.Embed(doc)
		if err != nil {
			return nil, err
		}
		return sys.Detect(doc, receipt.Records, nil)
	}
	fast, err := build(false)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := build(true)
	if err != nil {
		t.Fatal(err)
	}
	if *fast != *slow {
		t.Fatalf("indexed %+v != unindexed %+v", fast, slow)
	}
}
