package stream

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"wmxml/internal/core"
	"wmxml/internal/datagen"
	"wmxml/internal/xmltree"
)

// p50 sorts ds and returns its median (the lower one for even counts).
func p50(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[(len(ds)-1)/2]
}

// BenchmarkStreamVsMemory prices the streamed path against the
// in-memory one on a 1,000-record pubs document: parse, embed and
// serialize versus a streamed embed, and parse plus blind detect versus
// a streamed blind detect. Each op runs both paths, alternating which
// goes first. From 5 ops on the benchmark fails when the streamed p50
// reaches twice the in-memory p50.
func BenchmarkStreamVsMemory(b *testing.B) {
	const minOps = 5
	ds, err := datagen.Preset("pubs", 1000, 5)
	if err != nil {
		b.Fatal(err)
	}
	src := serializeDataset(b, ds)
	cfg := cfgFor(ds, "bench-key", "(C) bench", 5)
	marked, _ := inMemoryEmbed(b, src, cfg)
	ctx := context.Background()
	detected := func(det *core.DetectResult, err error) error {
		if err == nil && !det.Detected {
			err = fmt.Errorf("mark not detected (match %.3f, coverage %.3f)", det.MatchFraction, det.Coverage)
		}
		return err
	}
	streamed := func(st Stats, err error) error {
		if err == nil && !st.Streamed {
			err = fmt.Errorf("fell back in memory: %s", st.FallbackReason)
		}
		return err
	}
	for _, tc := range []struct {
		name        string
		mem, stream func() error
	}{
		{
			name: "embed",
			mem: func() error {
				doc, err := xmltree.Parse(bytes.NewReader(src), xmltree.ParseOptions{})
				if err != nil {
					return err
				}
				if _, err := core.Embed(doc, cfg); err != nil {
					return err
				}
				return xmltree.Serialize(io.Discard, doc, xmltree.SerializeOptions{Indent: "  "})
			},
			stream: func() error {
				res, err := Embed(ctx, bytes.NewReader(src), io.Discard, cfg, Options{})
				if err != nil {
					return err
				}
				return streamed(res.Stats, nil)
			},
		},
		{
			name: "detect",
			mem: func() error {
				doc, err := xmltree.Parse(bytes.NewReader(marked), xmltree.ParseOptions{})
				if err != nil {
					return err
				}
				return detected(core.DetectBlind(doc, cfg))
			},
			stream: func() error {
				det, st, err := DetectBlind(ctx, bytes.NewReader(marked), cfg, Options{})
				if err := streamed(st, err); err != nil {
					return err
				}
				return detected(det, nil)
			},
		},
	} {
		b.Run(tc.name, func(b *testing.B) {
			mem := make([]time.Duration, b.N)
			str := make([]time.Duration, b.N)
			run := func(fn func() error, d *time.Duration) {
				t0 := time.Now()
				if err := fn(); err != nil {
					b.Fatal(err)
				}
				*d = time.Since(t0)
			}
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					run(tc.mem, &mem[i])
					run(tc.stream, &str[i])
				} else {
					run(tc.stream, &str[i])
					run(tc.mem, &mem[i])
				}
			}
			memP50, strP50 := p50(mem), p50(str)
			ratio := float64(strP50) / float64(memP50)
			b.ReportMetric(float64(memP50.Nanoseconds()), "mem-p50-ns")
			b.ReportMetric(float64(strP50.Nanoseconds()), "stream-p50-ns")
			b.ReportMetric(ratio, "stream/mem")
			if b.N >= minOps && ratio >= 2 {
				b.Fatalf("%s: streamed p50 %v is %.2fx the in-memory p50 %v, want under 2x", tc.name, strP50, ratio, memP50)
			}
		})
	}
}
