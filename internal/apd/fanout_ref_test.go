package apd

import (
	"math/rand"
	"testing"

	"expanse/internal/ip6"
)

// fanOutRef is the retired math/rand fan-out, kept as the reference
// FanOut is pinned against: a generator seeded per prefix, two Uint64
// draws per branch through RandomAddr.
func fanOutRef(p ip6.Prefix) [Branches]ip6.Addr {
	rng := rand.New(rand.NewSource(fanSeed(p)))
	var out [Branches]ip6.Addr
	sub := p.Bits() + 4
	if sub > 128 {
		sub = 128
	}
	for i := 0; i < Branches; i++ {
		out[i] = p.Subprefix(sub, uint64(i)).RandomAddr(rng)
	}
	return out
}

// TestFanOutMatchesReference pins FanOut against the math/rand
// derivation over 12k prefixes of every length, including the /0, /125+
// and /128 edge cases where the subprefix length clamps.
func TestFanOutMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xfa0))
	prefixes := []ip6.Prefix{
		ip6.MustParsePrefix("::/0"),
		ip6.MustParsePrefix("2001:db8::/125"),
		ip6.MustParsePrefix("2001:db8::1/128"),
		ip6.MustParsePrefix("2001:db8:407:8000::/64"),
	}
	for i := 0; i < 12_000; i++ {
		a := ip6.AddrFromUint64(rng.Uint64(), rng.Uint64())
		prefixes = append(prefixes, ip6.PrefixFrom(a, rng.Intn(129)))
	}
	for _, p := range prefixes {
		if got, want := FanOut(p), fanOutRef(p); got != want {
			t.Fatalf("FanOut(%v) = %v, want %v", p, got, want)
		}
	}
}

var fanSink [Branches]ip6.Addr

func TestFanOutAllocFree(t *testing.T) {
	p := ip6.MustParsePrefix("2001:db8:407:8000::/64")
	if n := testing.AllocsPerRun(100, func() { fanSink = FanOut(p) }); n != 0 {
		t.Errorf("FanOut allocates %.1f times per call, want 0", n)
	}
}
