package identity

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"wmxml/internal/datagen"
)

// TestUnitsGolden pins bandwidth enumeration for every dataset preset
// under each identity mode: per unit its canonical ID, selector path,
// item count and identity query, then the skip report. Receipts are
// built from exactly these strings, so a change here changes every
// receipt. Regenerate after an intentional scheme change with:
//
//	WMXML_IDENTITY_GOLDEN_UPDATE=1 go test ./internal/identity -run TestUnitsGolden
func TestUnitsGolden(t *testing.T) {
	var sb strings.Builder
	for _, preset := range []string{"pubs", "jobs", "library", "nested"} {
		ds, err := datagen.Preset(preset, 24, 5)
		if err != nil {
			t.Fatal(err)
		}
		variants := []struct {
			name string
			opts Options
		}{
			{"semantic", Options{Targets: ds.Targets}},
			{"auto-targets", Options{}},
			{"positional", Options{Targets: ds.Targets, Mode: ModePositional}},
			{"no-fds", Options{Targets: ds.Targets, DisableFDs: true}},
		}
		for _, v := range variants {
			units, rep, err := NewBuilder(ds.Schema, ds.Catalog, v.opts).Units(ds.Doc)
			if err != nil {
				t.Fatalf("%s %s: %v", preset, v.name, err)
			}
			fmt.Fprintf(&sb, "== %s %s: %d units\n", preset, v.name, len(units))
			for _, u := range units {
				fmt.Fprintf(&sb, "%q sel=%q items=%d %s\n", u.ID, u.SelRel, len(u.Items), u.Query())
			}
			reasons := make([]string, 0, len(rep.Skipped))
			for r := range rep.Skipped {
				reasons = append(reasons, r)
			}
			sort.Strings(reasons)
			for _, r := range reasons {
				fmt.Fprintf(&sb, "skipped %q: %d\n", r, rep.Skipped[r])
			}
		}
	}
	got := sb.String()

	path := filepath.Join("testdata", "units.golden")
	if os.Getenv("WMXML_IDENTITY_GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s — re-run without WMXML_IDENTITY_GOLDEN_UPDATE to assert", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with WMXML_IDENTITY_GOLDEN_UPDATE=1 to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, path, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
}
