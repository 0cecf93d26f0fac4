package core

import (
	"strings"
	"testing"

	"wmxml/internal/datagen"
	"wmxml/internal/identity"
	"wmxml/internal/wmark"
	"wmxml/internal/xmltree"
)

func pubConfig(ds *datagen.Dataset, key, markSeed string) Config {
	return Config{
		Key:      []byte(key),
		Mark:     wmark.Random(markSeed, 64),
		Gamma:    4,
		Xi:       4,
		Schema:   ds.Schema,
		Catalog:  ds.Catalog,
		Identity: identity.Options{Targets: ds.Targets},
	}
}

func TestEmbedDetectRoundTrip(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 300, Editors: 30, Publishers: 6, Seed: 42})
	cfg := pubConfig(ds, "secret-key", "mark-1")
	cfg.ValidateInput = true
	doc := ds.Doc.Clone()
	er, err := Embed(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if er.Carriers == 0 || er.Embedded == 0 {
		t.Fatalf("nothing embedded: %+v", er)
	}
	if len(er.Records) != er.Carriers {
		t.Errorf("records = %d, carriers = %d", len(er.Records), er.Carriers)
	}
	// Query-based detection.
	dr, err := DetectWithQueries(doc, cfg, er.Records, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dr.Detected {
		t.Errorf("watermark not detected on marked document: %+v", dr.Result)
	}
	if dr.MatchFraction != 1.0 {
		t.Errorf("match = %.3f, want 1.0 on untouched marked doc", dr.MatchFraction)
	}
	if dr.QueryMisses != 0 {
		t.Errorf("query misses on untouched doc: %d", dr.QueryMisses)
	}
	// Blind detection.
	br, err := DetectBlind(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !br.Detected || br.MatchFraction != 1.0 {
		t.Errorf("blind detection failed: %+v", br.Result)
	}
}

func TestEmbedMutatesOnlyTargets(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 100, Seed: 7})
	cfg := pubConfig(ds, "k", "m")
	cfg.Identity.Targets = []string{"db/book/year", "db/book/price"}
	doc := ds.Doc.Clone()
	if _, err := Embed(doc, cfg); err != nil {
		t.Fatal(err)
	}
	// Titles, authors, editors untouched.
	orig := ds.Doc.Root().ChildElements()
	marked := doc.Root().ChildElements()
	for i := range orig {
		for _, f := range []string{"title", "editor", "author"} {
			o := orig[i].FirstChildNamed(f)
			m := marked[i].FirstChildNamed(f)
			if o.Text() != m.Text() {
				t.Fatalf("non-target %s changed: %q -> %q", f, o.Text(), m.Text())
			}
		}
	}
	// Structure unchanged.
	so := xmltree.CollectStats(ds.Doc)
	sm := xmltree.CollectStats(doc)
	if so.Elements != sm.Elements || so.Attributes != sm.Attributes {
		t.Errorf("embedding changed structure: %+v vs %+v", so, sm)
	}
}

func TestEmbedPerturbationSmall(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 200, Seed: 9})
	cfg := pubConfig(ds, "k2", "m2")
	cfg.Identity.Targets = []string{"db/book/year"}
	doc := ds.Doc.Clone()
	if _, err := Embed(doc, cfg); err != nil {
		t.Fatal(err)
	}
	orig := ds.Doc.Root().ChildElements()
	marked := doc.Root().ChildElements()
	changed := 0
	for i := range orig {
		o := orig[i].FirstChildNamed("year").Text()
		m := marked[i].FirstChildNamed("year").Text()
		if o != m {
			changed++
			var ov, mv int
			if _, err := fscan(o, &ov); err != nil {
				t.Fatalf("orig year %q", o)
			}
			if _, err := fscan(m, &mv); err != nil {
				t.Fatalf("marked year %q", m)
			}
			if abs(ov-mv) >= 16 { // xi = 4 -> max change 2^4 - 1
				t.Errorf("year perturbed too much: %s -> %s", o, m)
			}
		}
	}
	if changed == 0 {
		t.Errorf("no year values changed")
	}
}

func TestDetectWrongKey(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 300, Seed: 11})
	cfg := pubConfig(ds, "right-key", "m3")
	doc := ds.Doc.Clone()
	er, err := Embed(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Key = []byte("wrong-key")
	dr, err := DetectWithQueries(doc, bad, er.Records, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Detected {
		t.Errorf("wrong key detected the watermark: match=%.3f", dr.MatchFraction)
	}
	br, err := DetectBlind(doc, bad)
	if err != nil {
		t.Fatal(err)
	}
	if br.Detected {
		t.Errorf("wrong key blind-detected: match=%.3f", br.MatchFraction)
	}
}

func TestDetectWrongMark(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 300, Seed: 13})
	cfg := pubConfig(ds, "key", "real-mark")
	doc := ds.Doc.Clone()
	er, err := Embed(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Mark = wmark.Random("forged-mark", 64)
	dr, err := DetectWithQueries(doc, bad, er.Records, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Detected {
		t.Errorf("forged mark detected: match=%.3f", dr.MatchFraction)
	}
}

func TestDetectUnmarkedDocument(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 300, Seed: 17})
	cfg := pubConfig(ds, "key", "mark")
	dr, err := DetectBlind(ds.Doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dr.Detected {
		t.Errorf("unmarked document detected: match=%.3f voted=%d", dr.MatchFraction, dr.VotedBits)
	}
}

func TestFDConsistentBits(t *testing.T) {
	// All physical duplicates in an FD group must carry the same bit:
	// normalizing them (redundancy removal) must not damage the mark.
	ds := datagen.Publications(datagen.PubConfig{Books: 400, Editors: 12, Publishers: 4, Seed: 19})
	cfg := pubConfig(ds, "fd-key", "fd-mark")
	cfg.Identity.Targets = []string{"db/book/@publisher"}
	cfg.Gamma = 1 // select everything: every group is marked
	doc := ds.Doc.Clone()
	er, err := Embed(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if er.Carriers == 0 {
		t.Fatal("no carriers")
	}
	// Group publisher values by editor: within a group all values equal.
	byEditor := make(map[string]map[string]bool)
	for _, b := range doc.Root().ChildElementsNamed("book") {
		ed := b.FirstChildNamed("editor").Text()
		pub, _ := b.Attr("publisher")
		if byEditor[ed] == nil {
			byEditor[ed] = make(map[string]bool)
		}
		byEditor[ed][pub] = true
	}
	for ed, vals := range byEditor {
		if len(vals) != 1 {
			t.Errorf("editor %q has %d distinct publisher values after marking — FD broken", ed, len(vals))
		}
	}
}

func TestConfigValidation(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 10, Seed: 1})
	doc := ds.Doc.Clone()
	if _, err := Embed(doc, Config{}); err == nil {
		t.Errorf("empty config accepted")
	}
	if _, err := Embed(doc, Config{Key: []byte("k")}); err == nil {
		t.Errorf("missing mark accepted")
	}
	if _, err := Embed(doc, Config{Key: []byte("k"), Mark: wmark.Bits{1}}); err == nil {
		t.Errorf("missing schema accepted")
	}
	cfg := pubConfig(ds, "k", "m")
	cfg.Identity.Targets = []string{"bogus"}
	if _, err := Embed(doc, cfg); err == nil {
		t.Errorf("bogus target accepted")
	}
}

func TestValidateInputRejectsInvalid(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 10, Seed: 1})
	cfg := pubConfig(ds, "k", "m")
	cfg.ValidateInput = true
	doc := xmltree.MustParseString(`<db><magazine/></db>`)
	if _, err := Embed(doc, cfg); err == nil {
		t.Errorf("invalid document accepted with ValidateInput")
	}
}

func TestQuerySetSerialization(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 150, Seed: 23})
	cfg := pubConfig(ds, "ser-key", "ser-mark")
	cfg.Gamma = 2
	doc := ds.Doc.Clone()
	er, err := Embed(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalQuerySet(er.Records)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalQuerySet(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(er.Records) {
		t.Fatalf("records: %d vs %d", len(back), len(er.Records))
	}
	dr, err := DetectWithQueries(doc, cfg, back, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dr.Detected || dr.MatchFraction != 1.0 {
		t.Errorf("detection after Q round trip: %+v", dr.Result)
	}
	if _, err := UnmarshalQuerySet([]byte("{broken")); err == nil {
		t.Errorf("broken JSON accepted")
	}
}

func TestDetectAfterSerializationRoundTrip(t *testing.T) {
	// The watermark must survive serialize -> parse (i.e. it lives in the
	// data, not in the in-memory representation).
	ds := datagen.Jobs(datagen.JobsConfig{Jobs: 200, Seed: 29})
	cfg := Config{
		Key: []byte("jobs-key"), Mark: wmark.Random("jobs-mark", 48),
		Gamma: 3, Schema: ds.Schema, Catalog: ds.Catalog,
		Identity: identity.Options{Targets: ds.Targets},
	}
	doc := ds.Doc.Clone()
	er, err := Embed(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xml := xmltree.SerializeIndentString(doc)
	doc2, err := xmltree.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := DetectWithQueries(doc2, cfg, er.Records, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dr.Detected || dr.MatchFraction != 1.0 {
		t.Errorf("detection after XML round trip: %+v", dr.Result)
	}
}

func TestLibraryImageChannel(t *testing.T) {
	ds := datagen.Library(datagen.LibraryConfig{Items: 150, Seed: 31})
	cfg := Config{
		Key: []byte("lib-key"), Mark: wmark.Random("lib-mark", 64),
		Gamma: 2, Schema: ds.Schema, Catalog: ds.Catalog,
		Identity: identity.Options{Targets: []string{"library/item/thumb"}},
	}
	doc := ds.Doc.Clone()
	er, err := Embed(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if er.Carriers == 0 {
		t.Fatal("no image carriers")
	}
	dr, err := DetectWithQueries(doc, cfg, er.Records, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !dr.Detected || dr.MatchFraction != 1.0 {
		t.Errorf("image-channel detection: %+v", dr.Result)
	}
}

func TestGammaScalesCarriers(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 600, Editors: 60, Seed: 37})
	var prev int
	for i, gamma := range []int{1, 5, 25} {
		cfg := pubConfig(ds, "gamma-key", "gamma-mark")
		cfg.Gamma = gamma
		doc := ds.Doc.Clone()
		er, err := Embed(doc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && er.Carriers >= prev {
			t.Errorf("gamma %d carriers %d not fewer than previous %d", gamma, er.Carriers, prev)
		}
		prev = er.Carriers
	}
}

func TestEmbedIsIdempotentForDetection(t *testing.T) {
	// Embedding twice with the same parameters yields the same document.
	ds := datagen.Publications(datagen.PubConfig{Books: 100, Seed: 41})
	cfg := pubConfig(ds, "idem", "idem")
	d1 := ds.Doc.Clone()
	if _, err := Embed(d1, cfg); err != nil {
		t.Fatal(err)
	}
	d2 := d1.Clone()
	if _, err := Embed(d2, cfg); err != nil {
		t.Fatal(err)
	}
	if !xmltree.Equal(d1, d2, xmltree.CompareOptions{}) {
		t.Errorf("re-embedding changed the document: %+v", xmltree.FirstDiff(d1, d2))
	}
}

// --- helpers ---

func fscan(s string, v *int) (int, error) {
	n := 0
	neg := false
	i := 0
	if i < len(s) && s[i] == '-' {
		neg = true
		i++
	}
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errParse{}
		}
		n = n*10 + int(s[i]-'0')
	}
	if neg {
		n = -n
	}
	*v = n
	return 1, nil
}

type errParse struct{}

func (errParse) Error() string { return "parse error" }

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func TestRecordsContainKeyPredicates(t *testing.T) {
	ds := datagen.Publications(datagen.PubConfig{Books: 60, Seed: 43})
	cfg := pubConfig(ds, "qk", "qm")
	doc := ds.Doc.Clone()
	er, err := Embed(doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range er.Records {
		if !strings.Contains(rec.Query, "=") {
			t.Errorf("record query not value-based: %q", rec.Query)
		}
		if strings.Contains(rec.Query, "position()") {
			t.Errorf("semantic mode produced positional query: %q", rec.Query)
		}
	}
}

// TestEmbedAllocs bounds the objects one embed of a 1k-record document
// allocates at gamma 10: about 24k, with identity queries built for the
// carriers only and carrier selection allocation-free. Building every
// unit's query, or keying a fresh HMAC per decision, costs about 120k
// and fails the bound, which leaves under 25% headroom.
func TestEmbedAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops pooled HMAC states")
	}
	ds := datagen.Publications(datagen.PubConfig{Books: 1000, Seed: 2005})
	cfg := Config{
		Key:      []byte("bench-key"),
		Mark:     wmark.FromText("bench-mark-2005"),
		Gamma:    10,
		Schema:   ds.Schema,
		Catalog:  ds.Catalog,
		Identity: identity.Options{Targets: ds.Targets},
	}
	const runs = 10
	docs := make([]*xmltree.Node, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range docs {
		docs[i] = ds.Doc.Clone()
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		if _, err := EmbedIndexed(docs[next], cfg, nil); err != nil {
			t.Fatal(err)
		}
		next++
	})
	const budget = 29000
	if avg > budget {
		t.Fatalf("EmbedIndexed on 1000 records allocates %.0f objects/op, budget is %d", avg, budget)
	}
	t.Logf("EmbedIndexed on 1000 records: %.0f allocs/op", avg)
}
