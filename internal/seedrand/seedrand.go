// Package seedrand computes the first draws of rand.New(rand.NewSource(seed))
// without seeding a generator.
//
// Seeding math/rand fills a 607-word state with 1,841 steps of a Lehmer
// generator (x ← 48271·x mod 2³¹−1), which costs ~14 µs. Callers that
// need a handful of deterministic draws per key — a machine's TCP/IP
// fingerprint, a prefix's 16 fan-out targets — pay that fill for a few
// outputs. But output k < 273 of the lagged-Fibonacci recurrence reads
// only two words of the freshly seeded state, state[333−k] and
// state[606−k], and word i is three Lehmer values (seed·48271^n for
// n = 21+3i … 23+3i) XORed with a constant. A Source computes exactly
// those outputs from a table of multiplier powers, so it is two words
// wide and free to copy.
package seedrand

import "math/rand"

const (
	length = 607 // words of math/rand generator state
	taps   = 273 // lag of its recurrence: outputs that read only seeded words
	m31    = 1<<31 - 1
)

var (
	// pow[n] is 48271^n mod 2³¹−1, the Lehmer multiplier after n steps.
	pow [3*length + 21]uint64
	// cooked is math/rand's rngCooked table, the constant XORed into
	// each seeded word, recovered at init from a real generator.
	cooked [length]uint64
)

func init() {
	pow[0] = 1
	for n := 1; n < len(pow); n++ {
		pow[n] = pow[n-1] * 48271 % m31
	}
	// A full cycle of 607 outputs rewrites every state word once (output
	// k lands in word feed(k)), so the outputs are the final state.
	// Undoing the steps x[feed] += x[tap] backwards yields the seeded
	// state, and XORing off the Lehmer words of seed 1 leaves the table.
	src := rand.NewSource(1).(rand.Source64)
	var vec [length]uint64
	for k := 0; k < length; k++ {
		vec[feed(k)] = src.Uint64()
	}
	for k := length - 1; k >= 0; k-- {
		vec[feed(k)] -= vec[length-1-k]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lehmer(1, i)
	}
}

// feed is the state word output k (< length) overwrites.
func feed(k int) int { return (2*length - taps - 1 - k) % length }

// Source yields the first 273 outputs of rand.NewSource(seed); the
// methods match the rand.Rand methods of the same name draw for draw.
// The zero Source is not valid; use New.
type Source struct {
	seed uint64 // reduced as rngSource.Seed does: in [1, 2³¹−2]
	n    int    // outputs drawn
}

// New returns the source of the sequence rand.NewSource(seed) starts with.
func New(seed int64) Source {
	seed %= m31
	if seed < 0 {
		seed += m31
	}
	if seed == 0 {
		seed = 89482311
	}
	return Source{seed: uint64(seed)}
}

// lehmer is the part of state word i that seeding derives from the
// reduced seed; rngSource.Seed stores it XORed with cooked[i].
func lehmer(seed uint64, i int) uint64 {
	n := 21 + 3*i
	return (seed*pow[n]%m31)<<40 ^ (seed*pow[n+1]%m31)<<20 ^ seed*pow[n+2]%m31
}

// Uint64 returns the next 64-bit output. It panics on the 274th draw,
// the first that would read a word the recurrence has rewritten.
func (s *Source) Uint64() uint64 {
	k := s.n
	if k >= taps {
		panic("seedrand: more than 273 draws from one seed")
	}
	s.n++
	a, b := length-taps-1-k, length-1-k
	return (lehmer(s.seed, a) ^ cooked[a]) + (lehmer(s.seed, b) ^ cooked[b])
}

// Int63 returns a non-negative 63-bit integer as an int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint32 returns a 32-bit value, the top bits of Int63.
func (s *Source) Uint32() uint32 { return uint32(s.Int63() >> 31) }

// Float64 returns a float in [0, 1), redrawing when the division rounds
// to 1 exactly as rand.Rand does.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}
