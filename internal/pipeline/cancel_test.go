package pipeline_test

// Mid-batch cancellation coverage: workers drain their in-flight
// documents, the partial outcome set is internally consistent, and no
// goroutine outlives the call.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"wmxml"
)

// goroutineBaseline snapshots the goroutine count and returns a
// checker that fails the test if the count has not returned to the
// baseline within two seconds — a goleak-style leak assertion with no
// external dependency.
func goroutineBaseline(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after; stacks:\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// cancelAfter cancels a fresh context after d.
func cancelAfter(d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(d)
		cancel()
	}()
	return ctx, cancel
}

// TestEmbedAllCancelMidBatch cancels a large batch shortly after it
// starts: the call returns ctx.Err(), in-flight documents finish
// cleanly, unfed documents report ErrBatchSkipped, the summary
// classifies every document, and the worker pool leaves no goroutines
// behind.
func TestEmbedAllCancelMidBatch(t *testing.T) {
	leakCheck := goroutineBaseline(t)
	// 256 documents of 200 records each take far longer than the cancel
	// delay, so cancellation lands mid-batch with a wide margin.
	docs, opts := corpus(t, 256, 200)
	pl := wmxml.NewPipeline(newSystem(t, opts), wmxml.PipelineOptions{Workers: 2})

	ctx, cancel := cancelAfter(5 * time.Millisecond)
	defer cancel()
	outs, err := pl.EmbedBatch(ctx, docs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	leakCheck()

	if len(outs) != len(docs) {
		t.Fatalf("outcomes = %d, want %d", len(outs), len(docs))
	}
	var done, skipped int
	for i, o := range outs {
		if o.Index != i || o.ID != fmt.Sprintf("#%d", i) {
			t.Errorf("outcome %d misattributed: ID=%s Index=%d", i, o.ID, o.Index)
		}
		switch {
		case errors.Is(o.Err, wmxml.ErrBatchSkipped):
			skipped++
			if o.Receipt != nil {
				t.Errorf("doc %s: skipped but has a receipt", o.ID)
			}
		case o.Err != nil:
			t.Errorf("doc %s: unexpected error %v", o.ID, o.Err)
		default:
			done++
			if o.Receipt == nil || len(o.Receipt.Records) == 0 {
				t.Errorf("doc %s: success without receipt", o.ID)
			}
		}
	}
	if skipped == 0 {
		t.Fatalf("cancellation skipped nothing (done=%d): batch completed before cancel", done)
	}
	t.Logf("cancelled mid-batch: %d done, %d skipped of %d", done, skipped, len(docs))

	// The summary must classify every document, consistently with the
	// outcome partition.
	sum := wmxml.SummarizeEmbedBatch(outs)
	if sum.Docs != len(docs) || sum.Succeeded+sum.Failed+sum.Skipped != sum.Docs {
		t.Fatalf("summary inconsistent: %+v", sum)
	}
	if sum.Succeeded != done || sum.Skipped != skipped {
		t.Fatalf("summary disagrees with outcomes: %+v vs done=%d skipped=%d", sum, done, skipped)
	}
}

// TestDetectAllCancelMidBatch is the detection-side twin.
func TestDetectAllCancelMidBatch(t *testing.T) {
	leakCheck := goroutineBaseline(t)
	docs, opts := corpus(t, 256, 200)
	pl := wmxml.NewPipeline(newSystem(t, opts), wmxml.PipelineOptions{Workers: 2})
	// Blind detection (no stored queries): enumeration per doc is as
	// heavy as embedding, so the cancel lands mid-batch.
	ctx, cancel := cancelAfter(5 * time.Millisecond)
	defer cancel()
	outs, err := pl.DetectBatchBlind(ctx, docs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	leakCheck()

	var done, skipped int
	for i, o := range outs {
		if o.Index != i || o.ID != fmt.Sprintf("#%d", i) {
			t.Errorf("outcome %d misattributed: ID=%s Index=%d", i, o.ID, o.Index)
		}
		switch {
		case errors.Is(o.Err, wmxml.ErrBatchSkipped):
			skipped++
			if o.Detection != nil {
				t.Errorf("doc %s: skipped but has a result", o.ID)
			}
		case o.Err != nil:
			t.Errorf("doc %s: unexpected error %v", o.ID, o.Err)
		default:
			done++
			if o.Detection == nil {
				t.Errorf("doc %s: success without result", o.ID)
			}
		}
	}
	if skipped == 0 {
		t.Fatalf("cancellation skipped nothing (done=%d)", done)
	}
	sum := wmxml.SummarizeDetectBatch(outs)
	if sum.Docs != len(docs) || sum.Succeeded+sum.Failed+sum.Skipped != sum.Docs {
		t.Fatalf("summary inconsistent: %+v", sum)
	}
	if sum.Succeeded != done || sum.Skipped != skipped {
		t.Fatalf("summary disagrees with outcomes: %+v vs done=%d skipped=%d", sum, done, skipped)
	}
}

// TestEmbedStreamCancelDrains cancels a stream drawn from an endless
// source: the stream must end promptly, consumed outcomes must all be
// complete (a started document is never reported half-done), and every
// pipeline goroutine must exit.
func TestEmbedStreamCancelDrains(t *testing.T) {
	leakCheck := goroutineBaseline(t)
	_, opts := corpus(t, 1, 40)
	pl := wmxml.NewPipeline(newSystem(t, opts), wmxml.PipelineOptions{Workers: 4})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var got []wmxml.BatchEmbed
	for o := range pl.EmbedSeq(ctx, endless(40)) {
		got = append(got, o)
		if len(got) == 5 {
			cancel()
		}
	}
	// The loop exiting proves the stream ended after cancel. Every
	// outcome delivered before the cancel is a finished document; one a
	// worker picked up after the cancel may surface as ErrBatchSkipped,
	// but never half-done (receipt and skip error together).
	if len(got) < 5 {
		t.Fatalf("stream ended after %d outcomes, before the cancel trigger", len(got))
	}
	for i, o := range got {
		skippedOK := i >= 5 && errors.Is(o.Err, wmxml.ErrBatchSkipped) && o.Receipt == nil
		completeOK := o.Err == nil && o.Receipt != nil
		if !skippedOK && !completeOK {
			t.Errorf("outcome %d (doc %s): err=%v receipt=%v — neither complete nor cleanly skipped",
				i, o.ID, o.Err, o.Receipt != nil)
		}
	}
	leakCheck()
}
