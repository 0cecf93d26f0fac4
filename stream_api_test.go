package wmxml

// Public-surface coverage of the streaming API: System.EmbedStream /
// DetectStream (now record-chunked) stay byte- and verdict-identical
// to the tree-based methods, and the Pipeline reader jobs expose the
// same behavior with isolation.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
)

func streamTestSystem(t *testing.T) (*System, []byte) {
	t.Helper()
	ds := PublicationsDataset(120, 7)
	sys, err := New(Options{
		Key: "api-stream-key", Mark: "(C) api", Gamma: 2,
		Schema: ds.Schema, Catalog: ds.Catalog, Targets: ds.Targets,
	})
	if err != nil {
		t.Fatal(err)
	}
	var src bytes.Buffer
	if err := SerializeXML(&src, ds.Doc); err != nil {
		t.Fatal(err)
	}
	return sys, src.Bytes()
}

func TestEmbedStreamMatchesEmbed(t *testing.T) {
	sys, src := streamTestSystem(t)

	doc, err := ParseXML(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	wantReceipt, err := sys.Embed(doc)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := SerializeXML(&want, doc); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	gotReceipt, stats, err := sys.EmbedStreamContext(context.Background(), bytes.NewReader(src), &got, StreamOptions{ChunkSize: 9, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Streamed {
		t.Fatalf("fell back: %s", stats.FallbackReason)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("EmbedStream output differs from Embed+SerializeXML")
	}
	gotQ, _ := MarshalReceipt(gotReceipt.Records)
	wantQ, _ := MarshalReceipt(wantReceipt.Records)
	if !bytes.Equal(gotQ, wantQ) {
		t.Fatal("EmbedStream receipt differs from Embed receipt")
	}

	// Verdict parity across the three detection surfaces.
	det, err := sys.DetectStream(bytes.NewReader(got.Bytes()), gotReceipt.Records, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Detected {
		t.Fatalf("DetectStream missed: %+v", det)
	}
	blind, stats2, err := sys.DetectBlindStreamContext(context.Background(), bytes.NewReader(got.Bytes()), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !blind.Detected || !stats2.Streamed {
		t.Fatalf("blind stream detect: %+v / %+v", blind, stats2)
	}
}

func TestPipelineReaderJobs(t *testing.T) {
	sys, src := streamTestSystem(t)
	p := NewPipeline(sys, PipelineOptions{Workers: 2})

	var marked bytes.Buffer
	out, stats := p.EmbedReader(context.Background(), "huge-1", bytes.NewReader(src), &marked, StreamOptions{ChunkSize: 16})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.ID != "huge-1" || out.Receipt == nil || out.Receipt.Carriers == 0 {
		t.Fatalf("outcome: %+v", out)
	}
	if !stats.Streamed || stats.Records != 120 {
		t.Fatalf("stats: %+v", stats)
	}

	det, _ := p.DetectReader(context.Background(), "huge-1", bytes.NewReader(marked.Bytes()), out.Receipt.Records, nil, StreamOptions{})
	if det.Err != nil || !det.Detection.Detected {
		t.Fatalf("detect reader: %+v", det)
	}
	blind, _ := p.DetectReader(context.Background(), "huge-1", bytes.NewReader(marked.Bytes()), nil, nil, StreamOptions{})
	if blind.Err != nil || !blind.Detection.Detected {
		t.Fatalf("blind detect reader: %+v", blind)
	}

	// Malformed input surfaces as the job's error, not a panic or a
	// batch failure.
	bad, _ := p.DetectReader(context.Background(), "bad", strings.NewReader("<db><book>"), nil, nil, StreamOptions{})
	if bad.Err == nil {
		t.Fatal("malformed stream job succeeded")
	}

	// A reader that panics halfway through is the outcome's error.
	half := io.MultiReader(bytes.NewReader(src[:len(src)/2]), panicReader{})
	exploded, _ := p.EmbedReader(context.Background(), "exploded", half, io.Discard, StreamOptions{ChunkSize: 16})
	if exploded.Err == nil || exploded.Receipt != nil {
		t.Fatalf("panicking reader: err=%v receipt=%v", exploded.Err, exploded.Receipt != nil)
	}

	// A missing reader or writer is the outcome's error.
	if o, _ := p.EmbedReader(context.Background(), "no-reader", nil, io.Discard, StreamOptions{}); o.Err == nil {
		t.Error("EmbedReader with a nil reader succeeded")
	}
	if o, _ := p.EmbedReader(context.Background(), "no-writer", bytes.NewReader(src), nil, StreamOptions{}); o.Err == nil {
		t.Error("EmbedReader with a nil writer succeeded")
	}
	if o, _ := p.DetectReader(context.Background(), "no-reader", nil, nil, nil, StreamOptions{}); o.Err == nil {
		t.Error("DetectReader with a nil reader succeeded")
	}

	// A cancelled context skips the job without reading its input.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if o, _ := p.EmbedReader(ctx, "skipped", panicReader{}, io.Discard, StreamOptions{}); !errors.Is(o.Err, ErrBatchSkipped) {
		t.Errorf("cancelled EmbedReader: err = %v, want ErrBatchSkipped", o.Err)
	}
	if o, _ := p.DetectReader(ctx, "skipped", panicReader{}, out.Receipt.Records, nil, StreamOptions{}); !errors.Is(o.Err, ErrBatchSkipped) {
		t.Errorf("cancelled DetectReader: err = %v, want ErrBatchSkipped", o.Err)
	}
}

// panicReader stands for a caller's reader with a bug in it.
type panicReader struct{}

func (panicReader) Read([]byte) (int, error) { panic("reader exploded") }
