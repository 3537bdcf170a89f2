package nn

import (
	"math/rand"
	"sync"
)

// source is an exact port of the generator behind math/rand.NewSource: its
// Uint64 stream equals rand.NewSource(seed)'s bit for bit, and so does the
// Int63 stream, which is that stream with bit 63 cleared. The generator is
// Mitchell and Reeds' additive lagged Fibonacci sequence, 607 words long
// with its tap 273 words behind the feed. math/rand seeds it from 1,841
// serial Park–Miller steps x ← 48271·x mod (2³¹−1), three to a word. Step s
// of that chain is x₀·48271^s mod (2³¹−1) in closed form, so source.seed
// runs it as three interleaved chains, one per slot of a word, each stepped
// by 48271³. Its draws walk the register in runs that neither index wraps
// inside.
//
// The register is held in draw order: w[j] is the word math/rand keeps at
// vec[606−j], so the feed and the tap both move up through w.
type source struct {
	w         [rngLen]int64
	tap, feed int // the words the next draw adds
}

const (
	rngLen     = 607
	rngTap     = 273
	int32max   = 1<<31 - 1 // the Park–Miller modulus, a Mersenne prime
	parkMiller = 48271
	// chainStep is 48271³ mod (2³¹−1): one word of the seeding chain.
	chainStep = parkMiller * parkMiller % int32max * parkMiller % int32max
)

var (
	// chainLead holds 48271^s mod (2³¹−1) for s = 21, 22, 23: math/rand
	// discards 20 steps, then builds vec[0] from the next three.
	chainLead = [3]uint64{powMod(21), powMod(22), powMod(23)}
	// cooked[j] is the constant math/rand XORs into word j of a seeded
	// register (its rngCooked table, in draw order); cook fills it.
	cooked   [rngLen]int64
	cookOnce sync.Once
)

// cook derives cooked from math/rand itself: the first rngLen outputs of
// one seed overwrite every word of the register once, so stepping the
// recurrence back from them recovers the seeded register, and XOR with the
// uncooked one leaves the table. It takes one math/rand seeding, tens of
// µs, so the first seeding runs it rather than the package's start-up.
func cook() {
	const probe = 1
	ref := rand.NewSource(probe).(rand.Source64)
	var s source
	for k := 0; k < rngLen; k++ {
		s.w[(rngTap+k)%rngLen] = int64(ref.Uint64())
	}
	for k := rngLen - 1; k >= 0; k-- {
		s.w[(rngTap+k)%rngLen] -= s.w[k]
	}
	cooked = s.w      // the seeded register, for one seeding:
	s.register(probe) // the uncooked register XOR the seeded one
	cooked = s.w
}

// powMod returns 48271^e mod (2³¹−1).
func powMod(e int) uint64 {
	p := uint64(1)
	for ; e > 0; e-- {
		p = mulMod(p, parkMiller)
	}
	return p
}

// seed sets the register rand.NewSource(seed) starts from.
func (s *source) seed(seed int64) {
	cookOnce.Do(cook)
	s.register(seed)
}

// register sets each word from seed's Park–Miller chain and XORs in cooked.
func (s *source) register(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	a, b, c := mulMod(x, chainLead[0]), mulMod(x, chainLead[1]), mulMod(x, chainLead[2])
	for j := rngLen - 1; j >= 0; j-- {
		s.w[j] = int64(a<<40^b<<20^c) ^ cooked[j]
		a, b, c = mulMod(a, chainStep), mulMod(b, chainStep), mulMod(c, chainStep)
	}
	s.tap, s.feed = 0, rngTap
}

// mulMod returns x·p mod (2³¹−1) for x, p in [1, 2³¹−2]. Two folds of the
// Mersenne modulus take the product there without a branch: the first
// leaves a value below 2·(2³¹−1), the second maps it into [1, 2³¹−2],
// since a product of two units is never 0 mod a prime.
func mulMod(x, p uint64) uint64 {
	r := x * p
	r = r&int32max + r>>31
	return r&int32max + r>>31
}

// Uint64 returns the next value of rand.NewSource(seed).(rand.Source64)'s
// Uint64 stream.
func (s *source) Uint64() uint64 {
	x := s.w[s.feed] + s.w[s.tap]
	s.w[s.feed] = x
	if s.tap++; s.tap == rngLen {
		s.tap = 0
	}
	if s.feed++; s.feed == rngLen {
		s.feed = 0
	}
	return uint64(x)
}

// fill sets each element of data, in order, to int32(Int63>>32)&(n−1) − n/2
// of the stream's next Int63, for n a power of two in [1, 2³⁰]: the bits it
// keeps lie below bit 63, so the raw sum stands in for Int63. Each pass of
// the loop is a run of draws inside which neither the feed nor the tap
// wraps.
func (s *source) fill(data []int32, n int32) {
	mask, off := n-1, n/2
	for len(data) > 0 {
		l := min(len(data), rngLen-s.tap, rngLen-s.feed)
		out := data[:l]
		feed, tap := s.w[s.feed:][:len(out)], s.w[s.tap:][:len(out)]
		for i := range out {
			x := feed[i] + tap[i]
			feed[i] = x
			out[i] = int32(uint64(x)>>32)&mask - off
		}
		data = data[l:]
		if s.tap += l; s.tap == rngLen {
			s.tap = 0
		}
		if s.feed += l; s.feed == rngLen {
			s.feed = 0
		}
	}
}
