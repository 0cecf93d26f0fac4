package wmxml

// Tests for the public batch pipeline: slice batches, streaming
// sequences, summaries, and equivalence with per-document System calls.

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func pipelineFixture(t *testing.T, docs int) ([]*Document, *System) {
	t.Helper()
	base := PublicationsDataset(120, 1)
	sys, err := New(Options{
		Key: "pub-pipe-key", Mark: "(C) PIPE", Gamma: 4,
		Schema: base.Schema, Catalog: base.Catalog, Targets: base.Targets,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Document, docs)
	for i := range out {
		out[i] = PublicationsDataset(120, int64(i+1)).Doc
	}
	return out, sys
}

func TestPipelineEmbedDetectBatch(t *testing.T) {
	docs, sys := pipelineFixture(t, 8)
	pl := NewPipeline(sys, PipelineOptions{Workers: 4})

	outs, err := pl.EmbedBatch(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]DetectInput, len(docs))
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("doc %d: %v", i, o.Err)
		}
		if o.Receipt.Carriers == 0 {
			t.Fatalf("doc %d: no carriers", i)
		}
		inputs[i] = DetectInput{Doc: docs[i], Records: o.Receipt.Records}
	}
	sum := SummarizeEmbedBatch(outs)
	if sum.Succeeded != len(docs) || sum.Failed != 0 {
		t.Fatalf("embed summary = %+v", sum)
	}

	dets, err := pl.DetectBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dets {
		if d.Err != nil || !d.Detection.Detected || d.Detection.MatchFraction != 1.0 {
			t.Errorf("doc %s: err=%v det=%+v", d.ID, d.Err, d.Detection)
		}
	}
	dsum := SummarizeDetectBatch(dets)
	if dsum.Detected != len(docs) || dsum.MeanMatch != 1.0 {
		t.Errorf("detect summary = %+v", dsum)
	}

	// Blind batch detection over the same marked corpus.
	blind, err := pl.DetectBatchBlind(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	if s := SummarizeDetectBatch(blind); s.Detected != len(docs) {
		t.Errorf("blind summary = %+v", s)
	}
}

// TestPipelineMatchesSystem: a pooled batch must give each document the
// identical detection a lone System.Detect gives.
func TestPipelineMatchesSystem(t *testing.T) {
	docs, sys := pipelineFixture(t, 4)
	pl := NewPipeline(sys, PipelineOptions{Workers: 3})
	outs, err := pl.EmbedBatch(context.Background(), docs)
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs {
		want, err := sys.Detect(doc, outs[i].Receipt.Records, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.DetectBatch(context.Background(),
			[]DetectInput{{Doc: doc, Records: outs[i].Receipt.Records}})
		if err != nil {
			t.Fatal(err)
		}
		if *got[0].Detection != *want {
			t.Errorf("doc %d: batch detection %+v != system detection %+v", i, *got[0].Detection, *want)
		}
	}
}

// TestPipelineSeqStreaming: the Seq streams process every input once,
// stamp each outcome with its input's position in the source, and stop
// cleanly when the consumer breaks.
func TestPipelineSeqStreaming(t *testing.T) {
	docs, sys := pipelineFixture(t, 6)
	pl := NewPipeline(sys, PipelineOptions{Workers: 3})

	src := func(yield func(string, *Document) bool) {
		for i, d := range docs {
			if !yield(fmt.Sprintf("stream-%d", i), d) {
				return
			}
		}
	}
	records := make(map[string][]QueryRecord)
	for o := range pl.EmbedSeq(context.Background(), iter.Seq2[string, *Document](src)) {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.ID, o.Err)
		}
		if o.ID != fmt.Sprintf("stream-%d", o.Index) || records[o.ID] != nil {
			t.Fatalf("outcome %s has index %d or came twice", o.ID, o.Index)
		}
		records[o.ID] = o.Receipt.Records
	}
	if len(records) != len(docs) {
		t.Fatalf("stream embedded %d docs, want %d", len(records), len(docs))
	}

	dsrc := func(yield func(DetectInput) bool) {
		for i, d := range docs {
			id := fmt.Sprintf("stream-%d", i)
			if !yield(DetectInput{ID: id, Doc: d, Records: records[id]}) {
				return
			}
		}
	}
	seen := make(map[int]bool)
	detected := 0
	for o := range pl.DetectSeq(context.Background(), iter.Seq[DetectInput](dsrc)) {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.ID, o.Err)
		}
		if o.ID != fmt.Sprintf("stream-%d", o.Index) || seen[o.Index] {
			t.Fatalf("outcome %s has index %d or came twice", o.ID, o.Index)
		}
		seen[o.Index] = true
		if o.Detection.Detected {
			detected++
		}
	}
	if len(seen) != len(docs) || detected != len(docs) {
		t.Fatalf("stream detected %d/%d, want %d/%d", detected, len(seen), len(docs), len(docs))
	}

	// Early break from the consumer must terminate cleanly.
	broke := 0
	for range pl.EmbedSeq(context.Background(), iter.Seq2[string, *Document](src)) {
		broke++
		break
	}
	if broke != 1 {
		t.Fatalf("broke after %d outcomes", broke)
	}
}

// TestFanStreamWaitsForWorkers: a consumer that stops ranging gets
// control back only once no worker is inside fn. Input 0 finishes only
// after input 1 has started, so the consumer takes outcome 0 and breaks
// while input 1's fn is blocked; the range loop must not end before
// that fn is released and has returned.
func TestFanStreamWaitsForWorkers(t *testing.T) {
	running, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	fn := func(_ context.Context, i int, _ string) int {
		if i == 0 {
			<-running
			return i
		}
		close(running)
		<-release
		finished.Store(true)
		return i
	}
	ended := make(chan bool)
	go func() {
		for range fanStream(context.Background(), 2, slices.Values([]string{"a", "b"}), fn) {
			break
		}
		ended <- finished.Load()
	}()
	select {
	case <-ended:
		t.Fatal("the range loop ended while a worker was still in fn")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if !<-ended {
		t.Fatal("the range loop ended before the worker's fn returned")
	}
}

// TestEmbedSeqBreakReleasesDocuments: once the consumer breaks out of
// EmbedSeq, the caller owns its documents again, so serializing every
// source document right after the break must not race with a worker
// still embedding one (go test -race reports it if a worker outlives
// the loop).
func TestEmbedSeqBreakReleasesDocuments(t *testing.T) {
	docs, sys := pipelineFixture(t, 8)
	pl := NewPipeline(sys, PipelineOptions{Workers: 4})
	src := func(yield func(string, *Document) bool) {
		for i, d := range docs {
			if !yield(fmt.Sprintf("doc-%d", i), d) {
				return
			}
		}
	}
	for range pl.EmbedSeq(context.Background(), src) {
		break
	}
	for i, d := range docs {
		if SerializeXMLString(d) == "" {
			t.Fatalf("doc %d serialized empty", i)
		}
	}
}

func TestPipelineCancellation(t *testing.T) {
	docs, sys := pipelineFixture(t, 5)
	pl := NewPipeline(sys, PipelineOptions{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, err := pl.EmbedBatch(ctx, docs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	sum := SummarizeEmbedBatch(outs)
	if sum.Skipped != len(docs) {
		t.Errorf("summary = %+v, want all skipped", sum)
	}
	for _, o := range outs {
		if !errors.Is(o.Err, ErrBatchSkipped) {
			t.Errorf("%s: err = %v, want ErrBatchSkipped", o.ID, o.Err)
		}
	}
}
