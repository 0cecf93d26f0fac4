package wmark

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSelectorMACVectors pins mac's output for fixed (key, domain, id)
// triples. Every carrier choice, bit index and embedding position in
// every safeguarded receipt derives from these values, so any change to
// how the HMAC input is framed or the sum is read breaks old receipts.
// The vectors cover an empty id, a key longer than SHA-256's block
// (hashed first), quotes, multibyte UTF-8 and an id past one block.
func TestSelectorMACVectors(t *testing.T) {
	long := strings.Repeat("k", 100)
	for _, v := range []struct {
		key, domain, id string
		want            uint64
	}{
		{"k", "select", "", 0xec3f9ee6bde6e6b1},
		{"secret-key", "select", "key\x1fdb/book\x1fyear\x1fReadings in Database Systems", 0xad78878624fe7533},
		{"secret-key", "bit", "key\x1fdb/book\x1fyear\x1fReadings in Database Systems", 0x9d1a155a7346c780},
		{"secret-key", "pos", "fd\x1fdb/book\x1f@publisher\x1fO'Reilly \"Best\"", 0x441e1b3c6b7cf43c},
		{long, "select", strings.Repeat("identité ", 20), 0x88eee091f66b89ac},
		{"bench-key", "bit", "pos\x1fjobs/job\x1fsalary\x1f17", 0xdcd402024e5bbd76},
	} {
		s, err := NewSelector([]byte(v.key), 1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Twice: the second call runs on the pooled state the first
		// returned.
		for i := 0; i < 2; i++ {
			if got := s.mac(v.domain, v.id); got != v.want {
				t.Fatalf("mac(%q, %q) call %d under key %.10q = %#016x, want %#016x", v.domain, v.id, i+1, v.key, got, v.want)
			}
		}
	}
}

// TestSelectorConcurrentMatchesSequential: Selected, BitIndex and
// PositionIn called from 8 goroutines over 10k IDs answer exactly what
// one goroutine does. The selector's pooled HMAC states must never be
// shared between two calls in flight (the race detector checks that
// too).
func TestSelectorConcurrentMatchesSequential(t *testing.T) {
	type answer struct {
		selected  bool
		bit, pos2 int
	}
	const n = 10000
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("key\x1fdb/book\x1fyear\x1ftitle %d", i)
	}
	ask := func(s *Selector, id string) answer {
		return answer{s.Selected(id), s.BitIndex(id), s.PositionIn(id, 2)}
	}
	seq, _ := NewSelector([]byte("concurrent"), 10, 64, 4)
	want := make([]answer, n)
	for i, id := range ids {
		want[i] = ask(seq, id)
	}

	s, _ := NewSelector([]byte("concurrent"), 10, 64, 4)
	got := make([][]answer, 8)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]answer, n)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the IDs from its own offset, so
			// the goroutines interleave over different IDs.
			for k := 0; k < n; k++ {
				i := (k + g*n/8) % n
				got[g][i] = ask(s, ids[i])
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range ids {
			if got[g][i] != want[i] {
				t.Fatalf("goroutine %d, id %d: %+v, sequential %+v", g, i, got[g][i], want[i])
			}
		}
	}
}

// TestSelectedNoAllocs pins carrier selection at zero allocations per
// call: it runs once for every bandwidth unit of every embed, blind
// decode, fingerprint and stream chunk.
func TestSelectedNoAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops pooled HMAC states")
	}
	s, _ := NewSelector([]byte("alloc-free"), 10, 64, 4)
	id := "key\x1fdb/book\x1fyear\x1fReadings in Database Systems"
	if n := testing.AllocsPerRun(1000, func() { s.Selected(id) }); n != 0 {
		t.Fatalf("Selected allocates %.1f objects per call, want 0", n)
	}
}
