package seedrand

import (
	"math"
	"math/rand"
	"testing"
)

// drawBoth makes one draw of the given kind from both generators and
// returns the two values.
func drawBoth(s *Source, ref *rand.Rand, kind byte) (got, want any) {
	switch kind % 4 {
	case 0:
		return s.Uint64(), ref.Uint64()
	case 1:
		return s.Int63(), ref.Int63()
	case 2:
		return s.Uint32(), ref.Uint32()
	default:
		return s.Float64(), ref.Float64()
	}
}

// edgeSeeds are the seeds rngSource.Seed reduces specially: zero and
// multiples of 2³¹−1 (which all take the 89482311 path), negatives, and
// the extremes of int64.
var edgeSeeds = []int64{
	0, 1, -1, 2, m31 - 1, m31, m31 + 1, -m31, 2 * m31, -2 * m31, 89482311,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MaxInt32, math.MinInt32,
}

// TestMatchesMathRand pins mixed Float64/Uint32/Int63/Uint64 draws
// against rand.New(rand.NewSource(seed)) over the edge seeds and 20k
// pseudo-random ones.
func TestMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	pick := rand.New(rand.NewSource(0x5eed))
	for i := 0; i < 20_000; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for i, seed := range seeds {
		s, ref := New(seed), rand.New(rand.NewSource(seed))
		for d := 0; d < 12; d++ {
			if got, want := drawBoth(&s, ref, byte(i+d*7)); got != want {
				t.Fatalf("seed %d draw %d (kind %d): got %v, want %v", seed, d, (i+d*7)%4, got, want)
			}
		}
	}
}

// TestAllDrawsThenPanic walks every one of the 273 outputs of a few
// seeds, then checks that the 274th draw panics instead of returning a
// value the real generator would not produce.
func TestAllDrawsThenPanic(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, m31, 0x7e57} {
		s, ref := New(seed), rand.New(rand.NewSource(seed))
		for d := 0; d < taps; d++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, d, got, want)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("seed %d: draw %d did not panic", seed, taps+1)
				}
			}()
			s.Uint64()
		}()
	}
}

// FuzzSource compares a fuzzed seed's draws against math/rand, one draw
// per kind byte (Uint64, Int63, Uint32, Float64 by byte mod 4) until the
// 273-output budget is spent.
func FuzzSource(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, []byte{0, 1, 2, 3, 3, 2, 1, 0})
	}
	f.Fuzz(func(t *testing.T, seed int64, kinds []byte) {
		s, ref := New(seed), rand.New(rand.NewSource(seed))
		// Float64 may redraw, so stop one output short of the budget.
		for d, kind := range kinds {
			if s.n >= taps-1 {
				break
			}
			if got, want := drawBoth(&s, ref, kind); got != want {
				t.Fatalf("seed %d draw %d (kind %d): got %v, want %v", seed, d, kind%4, got, want)
			}
		}
	})
}

var benchSink float64

// BenchmarkNewAndDraw8 times one machine profile's worth of draws: a
// fresh source and eight Float64 draws.
func BenchmarkNewAndDraw8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(int64(i))
		for d := 0; d < 8; d++ {
			benchSink += s.Float64()
		}
	}
}
