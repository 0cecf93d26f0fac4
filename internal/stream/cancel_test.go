package stream

// Cancellation and failure coverage for the streaming workers:
// mid-stream context cancellation, a malformed chunk mid-document, a
// failing reader mid-document, and a blocked output writer must each
// abort promptly and leave no goroutines behind (the PR 3 leak-check
// discipline, extended to the streaming layer).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"wmxml/internal/core"
	"wmxml/internal/datagen"
	"wmxml/internal/xmltree"
)

// goroutineBaseline snapshots the goroutine count and returns a checker
// that fails the test if the count has not returned to the baseline
// within two seconds — a goleak-style assertion with no external
// dependency.
func goroutineBaseline(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= before {
				return
			}
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

// testWorkload builds a medium document + config for cancellation
// tests.
func testWorkload(t *testing.T, records int) ([]byte, core.Config) {
	t.Helper()
	ds, err := datagen.Preset("pubs", records, 2)
	if err != nil {
		t.Fatal(err)
	}
	return serializeDataset(t, ds), cfgFor(ds, "cancel-key", "(C) cancel", 2)
}

// slowWriter blocks every write until release is closed, then errors.
type slowWriter struct {
	wrote chan struct{} // closed on first write attempt
	block chan struct{}
	once  bool
}

func (w *slowWriter) Write(p []byte) (int, error) {
	if !w.once {
		w.once = true
		close(w.wrote)
	}
	<-w.block
	return 0, errors.New("writer gone")
}

// Cancellation contract (mirrors the batch pipeline): the context stops
// the stream between reads and chunks; an in-flight blocking Read or
// Write finishes (or fails) first, the call returns ctx.Err(), and no
// goroutine survives it — even when the cancellation itself induced
// truncation or write failures.

func TestEmbedCancelMidStream(t *testing.T) {
	leakCheck := goroutineBaseline(t)
	src, cfg := testWorkload(t, 300)

	// The writer blocks with chunks in flight; after cancellation the
	// in-flight write fails ("writer gone"), and the reported error must
	// still be the cancellation — the root cause.
	w := &slowWriter{wrote: make(chan struct{}), block: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Embed(ctx, bytes.NewReader(src), w, cfg, Options{ChunkSize: 10, Workers: 4})
		done <- err
	}()
	<-w.wrote
	cancel()
	close(w.block) // the in-flight write completes (with an error)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled in chain, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("embed did not return after cancellation")
	}
	leakCheck()
}

func TestDecodeCancelMidStream(t *testing.T) {
	leakCheck := goroutineBaseline(t)
	src, cfg := testWorkload(t, 300)

	ctx, cancel := context.WithCancel(context.Background())
	// The reader parks mid-document; cancellation fires while the
	// scanner is blocked in Read. Once the read returns (as an HTTP
	// body's would on request cancellation), the stream unwinds and
	// reports the cancellation, not the truncation it induced.
	half := len(src) / 2
	pr := &pausingReader{data: src, pauseAt: half, resume: make(chan struct{}), pause: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, _, err := DetectBlind(ctx, pr, cfg, Options{ChunkSize: 10, Workers: 4})
		done <- err
	}()
	<-pr.paused()
	cancel()
	close(pr.resume) // the in-flight read returns
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("decode did not return after cancellation")
	}
	leakCheck()
}

// pausingReader serves data up to pauseAt, then blocks until resume is
// closed (returning EOF afterwards).
type pausingReader struct {
	data    []byte
	pos     int
	pauseAt int
	resume  chan struct{}
	pause   chan struct{}
}

func (r *pausingReader) paused() chan struct{} { return r.pause }

func (r *pausingReader) Read(p []byte) (int, error) {
	if r.pos >= r.pauseAt {
		select {
		case <-r.pause:
		default:
			close(r.pause)
		}
		<-r.resume
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:r.pauseAt])
	r.pos += n
	return n, nil
}

func TestEmbedMalformedChunkMidDocument(t *testing.T) {
	leakCheck := goroutineBaseline(t)
	src, cfg := testWorkload(t, 120)

	// Corrupt the document mid-stream: truncate inside a record and
	// append garbage that breaks the tokenizer.
	cut := bytes.LastIndex(src[:len(src)*2/3], []byte("<book"))
	malformed := append(bytes.Clone(src[:cut]), []byte("<book><title>x</wrong></book></db>")...)

	var out bytes.Buffer
	_, err := Embed(context.Background(), bytes.NewReader(malformed), &out, cfg, Options{ChunkSize: 8, Workers: 4})
	if err == nil {
		t.Fatal("malformed document embedded without error")
	}
	if !strings.Contains(err.Error(), "syntax") && !strings.Contains(err.Error(), "parse") {
		t.Fatalf("unexpected error shape: %v", err)
	}
	leakCheck()
}

// TestDecodeReaderFailureMidDocument: a reader that fails or panics
// halfway through the document must end embed, detect and blind decode
// with an error naming the cause, not kill the process, and leave no
// goroutine behind.
func TestDecodeReaderFailureMidDocument(t *testing.T) {
	src, cfg := testWorkload(t, 120)
	res, err := Embed(context.Background(), bytes.NewReader(src), io.Discard, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	diskErr := errors.New("backing store went away")
	opts := Options{ChunkSize: 8, Workers: 4}
	ops := []struct {
		name string
		run  func(r io.Reader) error
	}{
		{"embed", func(r io.Reader) error {
			_, err := Embed(context.Background(), r, io.Discard, cfg, opts)
			return err
		}},
		{"detect", func(r io.Reader) error {
			_, _, err := Detect(context.Background(), r, cfg, res.Records, nil, opts)
			return err
		}},
		{"decode-blind", func(r io.Reader) error {
			_, _, err := DetectBlind(context.Background(), r, cfg, opts)
			return err
		}},
	}
	tails := []struct {
		name  string
		r     io.Reader
		cause func(error) bool
	}{
		{"failing", &failReader{err: diskErr}, func(err error) bool { return errors.Is(err, diskErr) }},
		{"panicking", panicReader{}, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "reader exploded")
		}},
	}
	for _, tail := range tails {
		for _, op := range ops {
			leakCheck := goroutineBaseline(t)
			err := op.run(io.MultiReader(bytes.NewReader(src[:len(src)/2]), tail.r))
			if !tail.cause(err) {
				t.Errorf("%s over a %s reader: error %v does not name the cause", op.name, tail.name, err)
			}
			leakCheck()
		}
	}
}

type failReader struct{ err error }

func (r *failReader) Read([]byte) (int, error) { return 0, r.err }

// panicReader stands for a caller's reader with a bug in it.
type panicReader struct{}

func (panicReader) Read([]byte) (int, error) { panic("reader exploded") }

// TestEmbedChunkWorkerError exercises the per-chunk embed failing (an
// invalid config surfaces per chunk) without hanging the pipeline.
func TestEmbedChunkWorkerError(t *testing.T) {
	leakCheck := goroutineBaseline(t)
	src, cfg := testWorkload(t, 60)
	cfg.Gamma = -1 // invalid selector: every chunk embed fails

	var out bytes.Buffer
	_, err := Embed(context.Background(), bytes.NewReader(src), &out, cfg, Options{ChunkSize: 8, Workers: 4})
	if err == nil {
		t.Fatal("expected per-chunk embed failure to surface")
	}
	if !strings.Contains(err.Error(), "gamma") {
		t.Fatalf("unexpected error: %v", err)
	}
	leakCheck()
}

// TestStreamParserTruncated locks the StreamParser's truncation error
// path: a document cut inside a record reports the enclosing element.
func TestStreamParserTruncated(t *testing.T) {
	sp := xmltree.NewStreamParser(strings.NewReader("<db><book><title>x</title>"), xmltree.ParseOptions{})
	var err error
	for {
		_, err = sp.Next()
		if err != nil {
			break
		}
	}
	if errors.Is(err, io.EOF) {
		t.Fatal("truncated document reported clean EOF")
	}
	if !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("unexpected error: %v", err)
	}
	_ = fmt.Sprint() // keep fmt imported if assertions change
}

// TestChunkWorkerPanicIsolated: a panic inside chunk work (tree or
// plug-in code) must surface as the stream's error — never escape a
// worker goroutine and kill the process.
func TestChunkWorkerPanicIsolated(t *testing.T) {
	leakCheck := goroutineBaseline(t)
	src, _ := testWorkload(t, 100)
	sp := xmltree.NewStreamParser(bytes.NewReader(src), xmltree.ParseOptions{})
	opts := Options{ChunkSize: 10, Workers: 4}.withDefaults()
	_, err := runChunked(context.Background(), sp, map[string]bool{"book": true}, opts,
		func(c *chunk) error { panic("plug-in exploded") },
		func(c *chunk) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("worker panic not converted to an error: %v", err)
	}
	leakCheck()
}

// TestNonRecordItemsStayBounded: a document whose top-level children
// are mostly not record elements must still flush in bounded chunks —
// the item-count quota, not just the record quota, cuts them.
func TestNonRecordItemsStayBounded(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<db>")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&sb, "<junk n=\"%d\"/>", i)
	}
	sb.WriteString(`<book publisher="mkp"><title>Only One</title><editor>E</editor><year>1999</year><price>10.00</price></book>`)
	sb.WriteString("</db>")
	src := []byte(sb.String())

	ds, err := datagen.Preset("pubs", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgFor(ds, "bound-key", "(C) bound", 1)

	var out bytes.Buffer
	res, err := Embed(context.Background(), bytes.NewReader(src), &out, cfg, Options{ChunkSize: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Streamed {
		t.Fatalf("fell back: %s", res.Stats.FallbackReason)
	}
	// 501 items at an item quota of 4×10 → at least a dozen chunks.
	if res.Stats.Chunks < 10 {
		t.Fatalf("non-record items accumulated: only %d chunks for 501 items", res.Stats.Chunks)
	}
	// And the output still matches the in-memory path byte for byte.
	wantOut, _ := inMemoryEmbed(t, src, cfg)
	if !bytes.Equal(out.Bytes(), wantOut) {
		t.Fatal("bounded-chunk output differs from in-memory embed")
	}
}
