package netsim

import (
	"expanse/internal/seedrand"
	"expanse/internal/wire"
)

// tsMode describes how a machine generates TCP timestamp values, the
// behaviours §5.4 of the paper distinguishes.
type tsMode uint8

const (
	// tsNone: no timestamp option in replies.
	tsNone tsMode = iota
	// tsMonotonic: one global counter (pre-4.10 Linux, BSDs) — the
	// high-confidence aliasing signal (same machine ⇒ one linear counter).
	tsMonotonic
	// tsPerTuple: randomized initial value per <SRC,DST> tuple
	// (Linux ≥ 4.10); monotonic per flow but useless across addresses.
	tsPerTuple
	// tsConstant: some middleboxes echo a fixed value.
	tsConstant
)

// machine is a fingerprint profile: the stable TCP/IP stack personality of
// one physical host. All addresses aliased to the same machine answer with
// the same profile; distinct hosts have their own.
type machine struct {
	iTTL    uint8 // initial hop limit: 32, 64, 128 or 255
	optText string
	mss     uint16
	wscale  uint8
	wsize   uint16
	tsMode  tsMode
	tsBase  uint32 // counter start (boot time offset)
	tsHz    uint32 // counter rate (100, 250, 1000 Hz)
	key     uint64 // per-machine hash key (per-tuple ts, jitter)
}

// Common option layouts: the paper finds 99.5% of responsive hosts choose
// MSS-SACK-TS-N-WS; the rest use variants.
var optLayouts = []string{
	"MSS-SACK-TS-N-WS",     // dominant (Linux-style)
	"MSS-N-WS-N-N-TS-SACK", // macOS-style
	"MSS-N-WS-SACK-TS",
	"MSS-SACK-TS",
	"MSS",
}

var optLayoutWeights = []float64{0.995, 0.002, 0.0015, 0.001, 0.0005}

var ittlValues = []uint8{64, 255, 128, 32}
var ittlWeights = []float64{0.72, 0.17, 0.10, 0.01}

// newMachine derives a machine profile from its key. The draws are those
// of rand.New(rand.NewSource(key)), computed by seedrand without seeding
// a generator, so a profile costs a few hundred nanoseconds and is derived
// wherever a fingerprint is emitted instead of being memoized.
func newMachine(key uint64) machine {
	rng := seedrand.New(int64(key))
	m := machine{key: key}
	m.iTTL = pickWeighted(&rng, ittlValues, ittlWeights)
	m.optText = pickWeighted(&rng, optLayouts, optLayoutWeights)
	m.mss = []uint16{1440, 1460, 1380, 8940}[weightedIdx(&rng, []float64{0.55, 0.35, 0.07, 0.03})]
	m.wscale = []uint8{7, 8, 9, 5, 2}[weightedIdx(&rng, []float64{0.5, 0.2, 0.15, 0.1, 0.05})]
	m.wsize = []uint16{28800, 65535, 64240, 14600, 29200}[weightedIdx(&rng, []float64{0.35, 0.25, 0.2, 0.1, 0.1})]
	switch weightedIdx(&rng, []float64{0.52, 0.36, 0.04, 0.08}) {
	case 0:
		m.tsMode = tsMonotonic
	case 1:
		m.tsMode = tsPerTuple
	case 2:
		m.tsMode = tsConstant
	default:
		m.tsMode = tsNone
	}
	m.tsBase = rng.Uint32()
	m.tsHz = []uint32{1000, 250, 100}[weightedIdx(&rng, []float64{0.6, 0.25, 0.15})]
	return m
}

// machineITTL is newMachine(key).iTTL, the profile's first draw: all a
// positive answer needs before a TCP fingerprint is emitted.
func machineITTL(key uint64) uint8 {
	rng := seedrand.New(int64(key))
	return pickWeighted(&rng, ittlValues, ittlWeights)
}

func pickWeighted[T any](rng *seedrand.Source, vals []T, w []float64) T {
	return vals[weightedIdx(rng, w)]
}

func weightedIdx(rng *seedrand.Source, w []float64) int {
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

// hasTS reports whether the layout carries a timestamp option.
func (m *machine) hasTS() bool {
	return m.tsMode != tsNone && containsTS(m.optText)
}

func containsTS(layout string) bool {
	for i := 0; i+1 < len(layout); i++ {
		if layout[i] == 'T' && layout[i+1] == 'S' {
			return true
		}
	}
	return false
}

// tsVal returns whether the machine echoes a TCP timestamp and the value
// it sends for a probe to dst-hash dstKey at virtual time at on the given
// day. It is the per-probe part of the fingerprint; everything else about
// a SYN-ACK is static per machine (see fingerprint).
func (m *machine) tsVal(dstKey uint64, day int, at wire.Time) (bool, uint32) {
	if !m.hasTS() {
		return false, 0
	}
	// Elapsed virtual seconds since machine boot: days plus microseconds.
	elapsed := uint64(day)*86_400 + uint64(at)/1_000_000
	ticks := uint32(elapsed * uint64(m.tsHz))
	// Sub-second component so probes microseconds apart still advance.
	ticks += uint32(uint64(at) % 1_000_000 * uint64(m.tsHz) / 1_000_000)
	switch m.tsMode {
	case tsMonotonic:
		return true, m.tsBase + ticks
	case tsPerTuple:
		return true, uint32(hash2(m.key, dstKey)) + ticks
	default: // tsConstant
		return true, m.tsBase
	}
}

// fingerprint returns the static SYN-ACK personality in the scan plane's
// interned vocabulary.
func (m *machine) fingerprint() wire.TCPFingerprint {
	return wire.TCPFingerprint{
		OptionsText: m.optText,
		MSS:         m.mss,
		WScale:      m.wscale,
		WSize:       m.wsize,
		TSPresent:   m.hasTS(),
	}
}

// tcpAnswer builds the SYN-ACK fingerprint for a probe to dst-hash dstKey
// at virtual time at on the given day — the heap-allocated per-probe form;
// the batch path interns fingerprint() and writes tsVal into a column.
func (m *machine) tcpAnswer(dstKey uint64, day int, at wire.Time) *wire.TCPInfo {
	info := &wire.TCPInfo{
		OptionsText: m.optText,
		MSS:         m.mss,
		WScale:      m.wscale,
		WSize:       m.wsize,
	}
	info.TSPresent, info.TSVal = m.tsVal(dstKey, day, at)
	return info
}
