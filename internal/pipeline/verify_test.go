package pipeline_test

import (
	"context"
	"reflect"
	"testing"

	"wmxml"
)

func verifySystem(t *testing.T, ds *wmxml.Dataset) *wmxml.System {
	t.Helper()
	return newSystem(t, wmxml.Options{
		Key:      "verify-key",
		MarkBits: wmxml.RandomMark("verify-mark", 48),
		Gamma:    4,
		Schema:   ds.Schema,
		Catalog:  ds.Catalog,
		Targets:  ds.Targets,
	})
}

// The Verify option runs detection on the freshly embedded document,
// reusing its index, and must match a standalone detection exactly.
func TestEmbedVerify(t *testing.T) {
	ds := wmxml.PublicationsDataset(120, 31)
	sys := verifySystem(t, ds)
	docs := []*wmxml.Document{ds.Doc.Clone(), ds.Doc.Clone(), ds.Doc.Clone()}
	pl := wmxml.NewPipeline(sys, wmxml.PipelineOptions{Workers: 2, Verify: true})
	outs, err := pl.EmbedBatch(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Err != nil || o.VerifyErr != nil {
			t.Fatalf("outcome %q: err=%v verifyErr=%v", o.ID, o.Err, o.VerifyErr)
		}
		if o.Verify == nil {
			t.Fatalf("outcome %q: no verify result", o.ID)
		}
		if !o.Verify.Detected || o.Verify.MatchFraction != 1.0 || o.Verify.QueryMisses != 0 {
			t.Fatalf("outcome %q: verify = %+v", o.ID, *o.Verify)
		}
		standalone, err := sys.Detect(docs[o.Index], o.Receipt.Records, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(o.Verify, standalone) {
			t.Fatalf("outcome %q: verify %+v != standalone %+v", o.ID, *o.Verify, *standalone)
		}
	}
}

// Without the option no verification runs.
func TestEmbedVerifyOff(t *testing.T) {
	ds := wmxml.PublicationsDataset(60, 32)
	pl := wmxml.NewPipeline(verifySystem(t, ds), wmxml.PipelineOptions{Workers: 1})
	outs, err := pl.EmbedBatch(context.Background(), []*wmxml.Document{ds.Doc.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil || outs[0].Verify != nil || outs[0].VerifyErr != nil {
		t.Fatalf("unexpected verify fields: %+v", outs[0])
	}
}
