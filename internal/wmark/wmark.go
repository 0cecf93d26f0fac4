// Package wmark supplies the keyed bit machinery shared by the WmXML
// encoder and decoder: watermark messages as bit strings, HMAC-based
// secret selection of carrier elements, per-element bit assignment, and
// majority-vote reconstruction with a detection statistic.
//
// The design follows the machinery of Agrawal–Kiernan (VLDB 2002), the
// relational ancestor the paper cites: an element is a carrier iff
// HMAC(K, id) mod gamma == 0, the watermark bit it carries is
// HMAC(K, id) mod |WM|, and detection majority-votes each bit over all
// carriers, declaring the mark present when the fraction of matching
// bits reaches a confidence threshold tau. What is WmXML-specific — and
// supplied by internal/identity — is the *id*: a semantics-derived
// identity string that survives re-organization, rather than a primary
// key of a relation.
package wmark

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strings"
	"sync"
)

// Bits is a watermark as a sequence of bits, each element 0 or 1.
type Bits []uint8

// FromText encodes a text message as its UTF-8 bits, most significant bit
// first.
func FromText(msg string) Bits {
	b := []byte(msg)
	bits := make(Bits, 0, len(b)*8)
	for _, by := range b {
		for i := 7; i >= 0; i-- {
			bits = append(bits, (by>>uint(i))&1)
		}
	}
	return bits
}

// Text decodes the bits back to text. Trailing partial bytes are dropped;
// bytes outside printable ASCII are rendered as '?' so that a corrupted
// recovery remains displayable.
func (b Bits) Text() string {
	var sb strings.Builder
	for i := 0; i+8 <= len(b); i += 8 {
		var by byte
		for j := 0; j < 8; j++ {
			by = by<<1 | b[i+j]
		}
		if by >= 0x20 && by < 0x7f {
			sb.WriteByte(by)
		} else {
			sb.WriteByte('?')
		}
	}
	return sb.String()
}

// FromHex decodes a hex string into bits (4 bits per hex digit).
func FromHex(s string) (Bits, error) {
	raw, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("wmark: bad hex watermark: %w", err)
	}
	bits := make(Bits, 0, len(raw)*8)
	for _, by := range raw {
		for i := 7; i >= 0; i-- {
			bits = append(bits, (by>>uint(i))&1)
		}
	}
	return bits, nil
}

// Hex renders the bits as hex (zero-padded to whole bytes).
func (b Bits) Hex() string {
	n := (len(b) + 7) / 8
	raw := make([]byte, n)
	for i, bit := range b {
		if bit != 0 {
			raw[i/8] |= 1 << uint(7-i%8)
		}
	}
	return hex.EncodeToString(raw)
}

// Random derives a pseudo-random watermark of length n bits from a seed
// string. Deterministic: the same seed yields the same mark.
func Random(seed string, n int) Bits {
	bits := make(Bits, 0, n)
	counter := 0
	for len(bits) < n {
		h := sha256.Sum256([]byte(fmt.Sprintf("wmxml-mark|%s|%d", seed, counter)))
		for _, by := range h {
			for i := 7; i >= 0 && len(bits) < n; i-- {
				bits = append(bits, (by>>uint(i))&1)
			}
		}
		counter++
	}
	return bits
}

// Equal reports whether two bit strings are identical.
func (b Bits) Equal(o Bits) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the bits as a 0/1 string.
func (b Bits) String() string {
	var sb strings.Builder
	for _, bit := range b {
		sb.WriteByte('0' + bit)
	}
	return sb.String()
}

// Selector performs the keyed decisions of the scheme. It is safe for
// concurrent use: each call takes a keyed HMAC state from the selector's
// pool, so a decision allocates nothing once the pool is warm.
type Selector struct {
	key     []byte
	gamma   int
	markLen int
	xi      int
	macs    sync.Pool // of *macState
}

// macState is one reusable HMAC computation: the keyed hash (Reset
// restores the key schedule without recomputing it), the input buffer
// and the sum.
type macState struct {
	h   hash.Hash
	in  []byte
	sum [sha256.Size]byte
}

// NewSelector builds a Selector.
//
//   - key: the secret key K. Whoever holds it can locate the carriers.
//   - gamma: selection ratio; on average 1 in gamma candidates carries a
//     bit. Must be >= 1 (1 marks everything).
//   - markLen: watermark length in bits.
//   - xi: number of candidate low-order positions for value embedding
//     (Agrawal–Kiernan's ξ). Must be >= 1.
func NewSelector(key []byte, gamma, markLen, xi int) (*Selector, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("wmark: empty secret key")
	}
	if gamma < 1 {
		return nil, fmt.Errorf("wmark: gamma must be >= 1, got %d", gamma)
	}
	if markLen < 1 {
		return nil, fmt.Errorf("wmark: watermark length must be >= 1, got %d", markLen)
	}
	if xi < 1 {
		return nil, fmt.Errorf("wmark: xi must be >= 1, got %d", xi)
	}
	s := &Selector{key: append([]byte(nil), key...), gamma: gamma, markLen: markLen, xi: xi}
	s.macs.New = func() any { return &macState{h: hmac.New(sha256.New, s.key)} }
	return s, nil
}

// Gamma returns the selection ratio.
func (s *Selector) Gamma() int { return s.gamma }

// MarkLen returns the watermark length in bits.
func (s *Selector) MarkLen() int { return s.markLen }

// Xi returns the number of candidate embedding positions.
func (s *Selector) Xi() int { return s.xi }

// mac is the first 8 bytes, big-endian, of HMAC-SHA256(key, domain‖0‖id).
func (s *Selector) mac(domain, id string) uint64 {
	m := s.macs.Get().(*macState)
	m.h.Reset()
	m.in = append(append(append(m.in[:0], domain...), 0), id...)
	m.h.Write(m.in)
	v := binary.BigEndian.Uint64(m.h.Sum(m.sum[:0]))
	s.macs.Put(m)
	return v
}

// Selected reports whether the identity id is a watermark carrier.
func (s *Selector) Selected(id string) bool {
	return s.mac("select", id)%uint64(s.gamma) == 0
}

// BitIndex returns which watermark bit the identity carries.
func (s *Selector) BitIndex(id string) int {
	return int(s.mac("bit", id) % uint64(s.markLen))
}

// Position returns the low-order embedding position (0 <= p < xi) for the
// identity.
func (s *Selector) Position(id string) int {
	return int(s.mac("pos", id) % uint64(s.xi))
}

// PositionIn is Position with an explicit xi, for fields whose value
// scale needs a shallower (or deeper) embedding depth than the default.
// xi < 1 falls back to the selector's default.
func (s *Selector) PositionIn(id string, xi int) int {
	if xi < 1 {
		xi = s.xi
	}
	return int(s.mac("pos", id) % uint64(xi))
}

// Votes accumulates per-bit evidence during detection: each carrier found
// in the suspect document votes for the value of one watermark bit.
type Votes struct {
	ones   []int
	zeros  []int
	total  int
	misses int
}

// NewVotes creates an accumulator for a watermark of n bits.
func NewVotes(n int) *Votes {
	return &Votes{ones: make([]int, n), zeros: make([]int, n)}
}

// Add records a vote: carrier for bit index idx observed value bit.
func (v *Votes) Add(idx int, bit uint8) {
	if idx < 0 || idx >= len(v.ones) {
		return
	}
	if bit != 0 {
		v.ones[idx]++
	} else {
		v.zeros[idx]++
	}
	v.total++
}

// AddMiss records a carrier that could not be read (element missing or
// value no longer extractable). Misses lower detection confidence
// reporting but do not vote.
func (v *Votes) AddMiss() { v.misses++ }

// Merge folds the votes of o into v. Vote counts are commutative sums,
// so merging per-chunk accumulators yields exactly the votes one pass
// over the whole document would have produced — this is what makes the
// streaming decoder bit-for-bit equivalent to the in-memory one.
// Accumulators of mismatched length are ignored (caller error).
func (v *Votes) Merge(o *Votes) {
	if o == nil || len(o.ones) != len(v.ones) {
		return
	}
	for i := range v.ones {
		v.ones[i] += o.ones[i]
		v.zeros[i] += o.zeros[i]
	}
	v.total += o.total
	v.misses += o.misses
}

// Total returns the number of votes cast.
func (v *Votes) Total() int { return v.total }

// Len returns the number of bit positions the accumulator tracks.
func (v *Votes) Len() int { return len(v.ones) }

// Counts returns the raw (ones, zeros) tally of one bit position — the
// evidence fingerprint tracing correlates against recipient codes.
// Out-of-range positions report (0, 0).
func (v *Votes) Counts(idx int) (ones, zeros int) {
	if idx < 0 || idx >= len(v.ones) {
		return 0, 0
	}
	return v.ones[idx], v.zeros[idx]
}

// Misses returns the number of unreadable carriers.
func (v *Votes) Misses() int { return v.misses }

// BitsWithVotes returns how many bit positions received at least one
// vote.
func (v *Votes) BitsWithVotes() int {
	n := 0
	for i := range v.ones {
		if v.ones[i]+v.zeros[i] > 0 {
			n++
		}
	}
	return n
}

// Recover majority-votes each bit. Positions with no votes recover as 0
// and are reported in the second return value.
func (v *Votes) Recover() (Bits, int) {
	bits := make(Bits, len(v.ones))
	unvoted := 0
	for i := range v.ones {
		switch {
		case v.ones[i] > v.zeros[i]:
			bits[i] = 1
		case v.ones[i] < v.zeros[i]:
			bits[i] = 0
		default:
			if v.ones[i] == 0 {
				unvoted++
			}
			bits[i] = 0 // tie: deterministic choice
		}
	}
	return bits, unvoted
}

// Result is the outcome of comparing recovered bits against the expected
// watermark.
type Result struct {
	// Recovered is the majority-voted watermark.
	Recovered Bits
	// MatchFraction is the fraction of *voted* bit positions whose
	// majority equals the expected bit. Unvoted positions are excluded so
	// that a heavily reduced document is judged on the evidence present.
	MatchFraction float64
	// VotedBits is the number of positions with at least one vote.
	VotedBits int
	// MatchedBits is how many of the VotedBits majorities equal the
	// expected bit.
	MatchedBits int
	// Coverage is VotedBits / len(mark).
	Coverage float64
	// Votes and Misses mirror the accumulator totals.
	Votes  int
	Misses int
	// Detected is MatchFraction >= tau && Coverage >= minCoverage, as
	// configured in Score.
	Detected bool
}

// Score compares the accumulated votes against the expected mark.
// tau is the match threshold (e.g. 0.85); minCoverage is the minimum
// fraction of mark bits that must have received votes (e.g. 0.5).
func (v *Votes) Score(mark Bits, tau, minCoverage float64) Result {
	if len(mark) != len(v.ones) {
		// Caller error; report an impossible score rather than panic.
		return Result{}
	}
	rec, _ := v.Recover()
	match := 0
	voted := 0
	for i := range mark {
		if v.ones[i]+v.zeros[i] == 0 {
			continue
		}
		voted++
		if rec[i] == mark[i] {
			match++
		}
	}
	res := Result{
		Recovered:   rec,
		VotedBits:   voted,
		MatchedBits: match,
		Votes:       v.total,
		Misses:      v.misses,
	}
	if voted > 0 {
		res.MatchFraction = float64(match) / float64(voted)
	}
	if len(mark) > 0 {
		res.Coverage = float64(voted) / float64(len(mark))
	}
	res.Detected = voted > 0 && res.MatchFraction >= tau && res.Coverage >= minCoverage
	return res
}

// Sigma returns the standard score of the observed match fraction under
// the null hypothesis that bits are random coin flips — a measure of how
// (im)plausible the detection is by chance. Useful in experiment output.
func (r Result) Sigma() float64 {
	if r.VotedBits == 0 {
		return 0
	}
	n := float64(r.VotedBits)
	return (r.MatchFraction - 0.5) * 2 * math.Sqrt(n) / 1.0
}

// FalsePositiveRate is the analytic probability that a random
// coin-flip watermark matches at least MatchedBits of the VotedBits
// voted bits: P[Binomial(VotedBits, 1/2) >= MatchedBits]. It works from
// the integer count, never the fraction, so no tail term is lost to
// rounding. Owners use it to size the mark: 55 or more matches out of
// 64 voted bits (tau=0.85) happen by chance with probability below
// 1e-8.
func (r Result) FalsePositiveRate() float64 {
	return FalsePositiveProbabilityCount(r.VotedBits, r.MatchedBits)
}

// FalsePositiveProbabilityCount is the exact binomial tail
// P[Binomial(n, 1/2) >= k] — the false-accusation probability of a
// correlation test that observed k matching bits out of n.
func FalsePositiveProbabilityCount(n, k int) float64 {
	if n <= 0 {
		return 1
	}
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	// Sum C(n,i)/2^n for i in [k,n] in log space for numeric stability.
	logHalfPowN := -float64(n) * math.Ln2
	total := 0.0
	for i := k; i <= n; i++ {
		lg, _ := math.Lgamma(float64(n + 1))
		li, _ := math.Lgamma(float64(i + 1))
		lni, _ := math.Lgamma(float64(n - i + 1))
		total += math.Exp(lg - li - lni + logHalfPowN)
	}
	if total > 1 {
		return 1
	}
	return total
}
