package stream

// The memory contract, measured: detection over a large document must
// not retain what it has already streamed past.

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"runtime/metrics"
	"testing"
)

// heapProbe serves data and, as the read offset passes each mark,
// forces a collection and records the live heap.
type heapProbe struct {
	data  []byte
	off   int
	marks []int
	live  []uint64
}

func (p *heapProbe) Read(b []byte) (int, error) {
	if len(p.marks) > 0 && p.off >= p.marks[0] {
		p.marks = p.marks[1:]
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		p.live = append(p.live, s[0].Value.Uint64())
	}
	if p.off == len(p.data) {
		return 0, io.EOF
	}
	n := copy(b, p.data[p.off:])
	p.off += n
	return n, nil
}

// TestDetectLiveHeapFlat streams a 20k-record document through Detect
// and requires the live heap at 75% of the input to exceed the reading
// at 25% by less than half the document's size. Records in a finished
// chunk must become garbage: nodes drawn from a slab shared by
// neighbouring chunks would keep every earlier chunk reachable, and the
// live heap would grow with the input.
func TestDetectLiveHeapFlat(t *testing.T) {
	src, cfg := testWorkload(t, 20000)
	var marked bytes.Buffer
	res, err := Embed(context.Background(), bytes.NewReader(src), &marked, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := marked.Len()
	probe := &heapProbe{data: marked.Bytes(), marks: []int{n / 4, 3 * n / 4}}
	det, stats, err := Detect(context.Background(), probe, cfg, res.Records, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !det.Detected || !stats.Streamed {
		t.Fatalf("detect over the marked document: detected=%v streamed=%v (%s)", det.Detected, stats.Streamed, stats.FallbackReason)
	}
	if len(probe.live) != 2 {
		t.Fatalf("took %d heap readings, want 2", len(probe.live))
	}
	rise := int64(probe.live[1]) - int64(probe.live[0])
	t.Logf("document %.1f MiB; live heap %.1f MiB at 25%%, %.1f MiB at 75%%",
		float64(n)/(1<<20), float64(probe.live[0])/(1<<20), float64(probe.live[1])/(1<<20))
	if rise >= int64(n/2) {
		t.Fatalf("live heap rose %.1f MiB between 25%% and 75%% of a %.1f MiB document: streamed records are retained",
			float64(rise)/(1<<20), float64(n)/(1<<20))
	}
}
