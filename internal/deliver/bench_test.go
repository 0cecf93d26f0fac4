package deliver

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"wmxml/internal/datagen"
)

// BenchmarkDeliverSplice prices one recipient copy spliced from a bound
// plan (payload derivation plus AppendCopy into a reused buffer)
// against a full fingerprint embed of the same copy (clone, embed,
// serialize) on a 300-record pubs document at gamma 5. An op splices
// 400 copies and makes the last of them the full way too, which times
// the full path and must give the same bytes. From 5 ops on the
// benchmark fails unless the splice p50 is under 100µs and the full p50
// is at least 100 times the splice p50.
func BenchmarkDeliverSplice(b *testing.B) {
	const minOps, copiesPerOp = 5, 400
	ds, err := datagen.Preset("pubs", 300, 6)
	if err != nil {
		b.Fatal(err)
	}
	fp := testFingerprinter(b, ds, "deliver-key", 5)
	plan, canonical, err := Compile(ds.Doc, fp.PlanConfig(), canonOpts)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := plan.Bind(canonical)
	if err != nil {
		b.Fatal(err)
	}

	splice := make([]time.Duration, 0, b.N*copiesPerOp)
	full := make([]time.Duration, 0, b.N)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var recipient string
		for j := 0; j < copiesPerOp; j++ {
			recipient = fmt.Sprintf("r-%d-%d", i, j)
			t0 := time.Now()
			buf, err = bound.AppendCopy(buf[:0], fp.Payload(recipient))
			splice = append(splice, time.Since(t0))
			if err != nil {
				b.Fatal(err)
			}
		}
		t0 := time.Now()
		doc := ds.Doc.Clone()
		if _, err := fp.Embed(doc, recipient); err != nil {
			b.Fatal(err)
		}
		want := serializeDoc(b, doc)
		full = append(full, time.Since(t0))
		if !bytes.Equal(buf, want) {
			b.Fatalf("recipient %q: spliced copy differs from full embed at %s", recipient, firstDiff(buf, want))
		}
	}

	slices.Sort(splice)
	slices.Sort(full)
	spliceP50, fullP50 := splice[(len(splice)-1)/2], full[(len(full)-1)/2]
	ratio := float64(fullP50) / float64(spliceP50)
	b.ReportMetric(float64(spliceP50.Nanoseconds()), "splice-p50-ns")
	b.ReportMetric(float64(fullP50.Nanoseconds()), "full-p50-ns")
	b.ReportMetric(ratio, "full/splice")
	if b.N < minOps {
		return
	}
	if spliceP50 >= 100*time.Microsecond {
		b.Fatalf("splice p50 %v, want under 100µs", spliceP50)
	}
	if ratio < 100 {
		b.Fatalf("full embed p50 %v is %.0fx the splice p50 %v, want at least 100x", fullP50, ratio, spliceP50)
	}
}
