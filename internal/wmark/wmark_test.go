package wmark

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBitsTextRoundTrip(t *testing.T) {
	msg := "(C) ACME Data 2005"
	bits := FromText(msg)
	if len(bits) != len(msg)*8 {
		t.Fatalf("bit length = %d", len(bits))
	}
	if got := bits.Text(); got != msg {
		t.Errorf("round trip = %q", got)
	}
}

func TestBitsHexRoundTrip(t *testing.T) {
	bits, err := FromHex("deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) != 32 {
		t.Fatalf("len = %d", len(bits))
	}
	if got := bits.Hex(); got != "deadbeef" {
		t.Errorf("hex round trip = %q", got)
	}
	if _, err := FromHex("zz"); err == nil {
		t.Errorf("bad hex accepted")
	}
}

func TestBitsTextCorruptionDisplayable(t *testing.T) {
	bits := FromText("ok")
	bits[0] = 1 // 'o' 0x6f -> 0xef, non printable
	got := bits.Text()
	if len(got) != 2 {
		t.Fatalf("text len = %d", len(got))
	}
	if got[0] != '?' {
		t.Errorf("corrupt byte rendered %q, want '?'", got[0])
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random("seed", 100)
	b := Random("seed", 100)
	if !a.Equal(b) {
		t.Errorf("Random not deterministic")
	}
	c := Random("other", 100)
	if a.Equal(c) {
		t.Errorf("different seeds produced same mark")
	}
	// Roughly balanced.
	ones := 0
	for _, bit := range Random("balance", 4096) {
		ones += int(bit)
	}
	if ones < 1800 || ones > 2300 {
		t.Errorf("ones = %d / 4096, badly unbalanced", ones)
	}
}

func TestSelectorValidation(t *testing.T) {
	if _, err := NewSelector(nil, 10, 64, 4); err == nil {
		t.Errorf("empty key accepted")
	}
	if _, err := NewSelector([]byte("k"), 0, 64, 4); err == nil {
		t.Errorf("gamma 0 accepted")
	}
	if _, err := NewSelector([]byte("k"), 10, 0, 4); err == nil {
		t.Errorf("markLen 0 accepted")
	}
	if _, err := NewSelector([]byte("k"), 10, 64, 0); err == nil {
		t.Errorf("xi 0 accepted")
	}
	s, err := NewSelector([]byte("k"), 10, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Gamma() != 10 || s.MarkLen() != 64 || s.Xi() != 4 {
		t.Errorf("accessors: %d %d %d", s.Gamma(), s.MarkLen(), s.Xi())
	}
}

func TestSelectorDeterminism(t *testing.T) {
	s1, _ := NewSelector([]byte("secret"), 10, 64, 4)
	s2, _ := NewSelector([]byte("secret"), 10, 64, 4)
	for _, id := range []string{"a", "b", "db/book[title='X']/year"} {
		if s1.Selected(id) != s2.Selected(id) {
			t.Errorf("Selected(%q) differs across instances", id)
		}
		if s1.BitIndex(id) != s2.BitIndex(id) {
			t.Errorf("BitIndex(%q) differs", id)
		}
		if s1.Position(id) != s2.Position(id) {
			t.Errorf("Position(%q) differs", id)
		}
	}
}

func TestSelectorKeyDependence(t *testing.T) {
	s1, _ := NewSelector([]byte("key-one"), 2, 64, 4)
	s2, _ := NewSelector([]byte("key-two"), 2, 64, 4)
	diff := 0
	for i := 0; i < 512; i++ {
		id := Random(string(rune(i)), 8).String()
		if s1.Selected(id) != s2.Selected(id) {
			diff++
		}
	}
	if diff == 0 {
		t.Errorf("selection identical under different keys")
	}
}

func TestSelectorRatio(t *testing.T) {
	s, _ := NewSelector([]byte("ratio"), 10, 64, 4)
	selected := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Selected(Random(string(rune(i))+"x", 16).String()) {
			selected++
		}
	}
	got := float64(selected) / n
	if math.Abs(got-0.1) > 0.02 {
		t.Errorf("selection rate = %.3f, want ~0.1", got)
	}
}

func TestSelectorBitIndexUniform(t *testing.T) {
	s, _ := NewSelector([]byte("uniform"), 1, 8, 4)
	counts := make([]int, 8)
	const n = 8000
	for i := 0; i < n; i++ {
		counts[s.BitIndex(Random(string(rune(i))+"y", 16).String())]++
	}
	for i, c := range counts {
		if c < n/8-300 || c > n/8+300 {
			t.Errorf("bit %d count = %d, want ~%d", i, c, n/8)
		}
	}
}

func TestSelectorPositionRange(t *testing.T) {
	s, _ := NewSelector([]byte("pos"), 1, 8, 4)
	if err := quick.Check(func(id string) bool {
		p := s.Position(id)
		return p >= 0 && p < 4
	}, nil); err != nil {
		t.Errorf("position out of range: %v", err)
	}
}

func TestVotesRecover(t *testing.T) {
	v := NewVotes(4)
	v.Add(0, 1)
	v.Add(0, 1)
	v.Add(0, 0) // majority 1
	v.Add(1, 0)
	v.Add(2, 1)
	// bit 3: no votes
	rec, unvoted := v.Recover()
	if rec.String() != "1010" {
		t.Errorf("recovered = %s", rec)
	}
	if unvoted != 1 {
		t.Errorf("unvoted = %d", unvoted)
	}
	if v.Total() != 5 {
		t.Errorf("total = %d", v.Total())
	}
	if v.BitsWithVotes() != 3 {
		t.Errorf("bits with votes = %d", v.BitsWithVotes())
	}
}

func TestVotesOutOfRangeIgnored(t *testing.T) {
	v := NewVotes(2)
	v.Add(-1, 1)
	v.Add(2, 1)
	if v.Total() != 0 {
		t.Errorf("out-of-range votes counted")
	}
}

func TestScoreDetection(t *testing.T) {
	mark := Bits{1, 0, 1, 1, 0, 0, 1, 0}
	v := NewVotes(len(mark))
	for i, b := range mark {
		v.Add(i, b)
		v.Add(i, b)
	}
	res := v.Score(mark, 0.85, 0.5)
	if !res.Detected || res.MatchFraction != 1.0 || res.Coverage != 1.0 {
		t.Errorf("perfect votes: %+v", res)
	}
}

func TestScorePartialCoverage(t *testing.T) {
	mark := Bits{1, 0, 1, 1}
	v := NewVotes(len(mark))
	v.Add(0, 1)
	v.Add(1, 0)
	// Two bits unvoted: coverage 0.5, matches perfect.
	res := v.Score(mark, 0.85, 0.5)
	if !res.Detected {
		t.Errorf("coverage at threshold should detect: %+v", res)
	}
	res2 := v.Score(mark, 0.85, 0.75)
	if res2.Detected {
		t.Errorf("coverage below threshold should not detect: %+v", res2)
	}
}

func TestScoreWrongMark(t *testing.T) {
	mark := Random("real", 64)
	wrong := Random("fake", 64)
	v := NewVotes(64)
	for i, b := range mark {
		v.Add(i, b)
	}
	res := v.Score(wrong, 0.85, 0.5)
	if res.Detected {
		t.Errorf("wrong mark detected: match=%.2f", res.MatchFraction)
	}
	if res.MatchFraction < 0.2 || res.MatchFraction > 0.8 {
		t.Errorf("wrong-mark match = %.2f, expected near 0.5", res.MatchFraction)
	}
}

func TestScoreLengthMismatch(t *testing.T) {
	v := NewVotes(8)
	res := v.Score(Bits{1, 0}, 0.85, 0.5)
	if res.Detected {
		t.Errorf("length mismatch produced detection")
	}
}

func TestMisses(t *testing.T) {
	v := NewVotes(4)
	v.AddMiss()
	v.AddMiss()
	if v.Misses() != 2 {
		t.Errorf("misses = %d", v.Misses())
	}
	res := v.Score(Bits{0, 0, 0, 0}, 0.85, 0.5)
	if res.Misses != 2 {
		t.Errorf("result misses = %d", res.Misses)
	}
}

func TestSigma(t *testing.T) {
	r := Result{MatchFraction: 1.0, VotedBits: 64}
	if r.Sigma() < 7 {
		t.Errorf("perfect 64-bit match sigma = %.1f, want > 7", r.Sigma())
	}
	chance := Result{MatchFraction: 0.5, VotedBits: 64}
	if math.Abs(chance.Sigma()) > 0.001 {
		t.Errorf("chance sigma = %f", chance.Sigma())
	}
	empty := Result{}
	if empty.Sigma() != 0 {
		t.Errorf("empty sigma = %f", empty.Sigma())
	}
}

func TestFalsePositiveProbability(t *testing.T) {
	// Exact small case: n=4, k=3 -> P[X>=3] = (C(4,3)+C(4,4))/16 = 5/16.
	if got := FalsePositiveProbabilityCount(4, 3); math.Abs(got-5.0/16.0) > 1e-12 {
		t.Errorf("FP(4,3) = %v, want 0.3125", got)
	}
	// Monotone decreasing in the match count.
	prev := 1.1
	for k := 16; k <= 32; k++ {
		got := FalsePositiveProbabilityCount(32, k)
		if got > prev {
			t.Errorf("FP not monotone at k=%d: %v > %v", k, got, prev)
		}
		prev = got
	}
	// Production sizing claim used in the docs: 55 of 64 is tau=0.85.
	if got := FalsePositiveProbabilityCount(64, 55); got > 1e-8 {
		t.Errorf("FP(64,55) = %v, want < 1e-8", got)
	}
	// Edge cases.
	if FalsePositiveProbabilityCount(0, 0) != 1 {
		t.Errorf("FP(0) should be 1")
	}
	if FalsePositiveProbabilityCount(10, 0) != 1 {
		t.Errorf("FP(k=0) should be 1")
	}
	if got := FalsePositiveProbabilityCount(10, 10); math.Abs(got-math.Pow(0.5, 10)) > 1e-12 {
		t.Errorf("FP(10,10) = %v, want 2^-10", got)
	}
	if FalsePositiveProbabilityCount(10, 11) != 0 {
		t.Errorf("FP(k>n) should be 0")
	}
}

// TestScoreFalsePositiveRateFromCount scores a table where 29 of 35
// voted bits match. Re-deriving the count as ceil((29/35)*35) gives 30
// in float64, which drops the i=29 term and reports P[X>=30] = 1.12e-5;
// the rate must be the full tail P[X>=29] = 5.84e-5.
func TestScoreFalsePositiveRateFromCount(t *testing.T) {
	mark := Random("fp-count", 35)
	v := NewVotes(len(mark))
	for i, b := range mark {
		if i < 6 {
			b ^= 1
		}
		v.Add(i, b)
	}
	res := v.Score(mark, 0.85, 0.5)
	if res.VotedBits != 35 || res.MatchedBits != 29 {
		t.Fatalf("scored %d matched of %d voted, want 29 of 35", res.MatchedBits, res.VotedBits)
	}
	// Exact tail: sum of C(35,i) for i in [29,35] over 2^35.
	var sum, c uint64 = 0, 1
	for i := 0; i <= 35; i++ {
		if i >= 29 {
			sum += c
		}
		c = c * uint64(35-i) / uint64(i+1)
	}
	want := float64(sum) / math.Exp2(35)
	if got := res.FalsePositiveRate(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("FalsePositiveRate() = %.4g, want P[Bin(35,1/2) >= 29] = %.4g", got, want)
	}
	if math.Abs(want-5.842e-5) > 1e-8 {
		t.Fatalf("reference tail = %.4g, want 5.842e-5", want)
	}
}

func TestQuickEmbedDetectIdentity(t *testing.T) {
	// Property: voting each mark bit exactly once recovers the mark.
	f := func(seed string) bool {
		mark := Random(seed, 32)
		v := NewVotes(32)
		for i, b := range mark {
			v.Add(i, b)
		}
		rec, _ := v.Recover()
		return rec.Equal(mark)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("recover identity property: %v", err)
	}
}

func TestPositionIn(t *testing.T) {
	s, _ := NewSelector([]byte("pi"), 1, 8, 4)
	// Explicit xi overrides the default range.
	for i := 0; i < 200; i++ {
		id := Random(string(rune(i))+"z", 16).String()
		if p := s.PositionIn(id, 2); p < 0 || p >= 2 {
			t.Fatalf("PositionIn(xi=2) = %d", p)
		}
		if p := s.PositionIn(id, 16); p < 0 || p >= 16 {
			t.Fatalf("PositionIn(xi=16) = %d", p)
		}
		// xi <= 0 falls back to the selector default.
		if p := s.PositionIn(id, 0); p != s.Position(id) {
			t.Fatalf("PositionIn(0) = %d, Position = %d", p, s.Position(id))
		}
	}
	// Different xi must actually reshuffle positions for some ids.
	diff := 0
	for i := 0; i < 100; i++ {
		id := Random(string(rune(i))+"w", 16).String()
		if s.PositionIn(id, 2) != s.PositionIn(id, 16) {
			diff++
		}
	}
	if diff == 0 {
		t.Errorf("PositionIn ignored xi")
	}
}
