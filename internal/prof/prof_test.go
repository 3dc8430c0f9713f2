package prof

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestHost(t *testing.T) {
	h := Host()
	if h.GoVersion == "" || h.CPUs < 1 || h.GOMAXPROCS < 1 {
		t.Fatalf("implausible host meta: %+v", h)
	}
}

func TestPeakRSS(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("VmHWM is Linux-only")
	}
	if rss := PeakRSS(); rss <= 0 {
		t.Fatalf("PeakRSS = %d on linux", rss)
	}
}

// TestProfilesRoundTrip drives the flag plumbing end to end: both
// profiles requested, Start/Stop, and non-empty pprof files on disk.
func TestProfilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb")
	mem := filepath.Join(dir, "mem.pb")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := Flags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i * i
	}
	_ = x
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}
}
