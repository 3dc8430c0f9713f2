package netsim

import (
	"math/rand"
	"testing"
)

// newMachineRef is the retired math/rand profile derivation, kept as the
// reference newMachine is pinned against: a generator seeded per key and
// the same weighted draws in the same order.
func newMachineRef(key uint64) machine {
	rng := rand.New(rand.NewSource(int64(key)))
	pick := func(w ...float64) int {
		total := 0.0
		for _, x := range w {
			total += x
		}
		r := rng.Float64() * total
		for i, x := range w {
			r -= x
			if r < 0 {
				return i
			}
		}
		return len(w) - 1
	}
	m := machine{key: key}
	m.iTTL = ittlValues[pick(ittlWeights...)]
	m.optText = optLayouts[pick(optLayoutWeights...)]
	m.mss = []uint16{1440, 1460, 1380, 8940}[pick(0.55, 0.35, 0.07, 0.03)]
	m.wscale = []uint8{7, 8, 9, 5, 2}[pick(0.5, 0.2, 0.15, 0.1, 0.05)]
	m.wsize = []uint16{28800, 65535, 64240, 14600, 29200}[pick(0.35, 0.25, 0.2, 0.1, 0.1)]
	m.tsMode = []tsMode{tsMonotonic, tsPerTuple, tsConstant, tsNone}[pick(0.52, 0.36, 0.04, 0.08)]
	m.tsBase = rng.Uint32()
	m.tsHz = []uint32{1000, 250, 100}[pick(0.6, 0.25, 0.15)]
	return m
}

// TestNewMachineMatchesReference pins newMachine and the hop-limit-only
// machineITTL against the math/rand derivation over 12k keys: the machine
// keys of a built world plus pseudo-random and edge keys (zero, the
// 2³¹−1 multiples math/rand seeds specially, the top bit set).
func TestNewMachineMatchesReference(t *testing.T) {
	keys := []uint64{0, 1, 1<<31 - 1, 2 * (1<<31 - 1), 1 << 63, ^uint64(0)}
	for _, mk := range world.hc.machine {
		if len(keys) >= 6_000 {
			break
		}
		keys = append(keys, mk)
	}
	rng := rand.New(rand.NewSource(0x3ac))
	for len(keys) < 12_000 {
		keys = append(keys, rng.Uint64())
	}
	for _, k := range keys {
		want := newMachineRef(k)
		if got := newMachine(k); got != want {
			t.Fatalf("newMachine(%#x) = %+v, want %+v", k, got, want)
		}
		if got := machineITTL(k); got != want.iTTL {
			t.Fatalf("machineITTL(%#x) = %d, want %d", k, got, want.iTTL)
		}
	}
}

var (
	machineSink machine
	ittlSink    uint8
)

func TestMachineDerivationAllocFree(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { machineSink = newMachine(0x5eed) }); n != 0 {
		t.Errorf("newMachine allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ittlSink = machineITTL(0x5eed) }); n != 0 {
		t.Errorf("machineITTL allocates %.1f times per call, want 0", n)
	}
}
