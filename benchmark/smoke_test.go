package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"expanse/internal/netsim"
)

// TestMain lets the test binary serve as the workload process the
// parent spawns (it re-executes its own executable with "child").
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload on a test-sized world and parses the last
// line of its output.
func runTiny(t *testing.T, args ...string) (resultLine, int) {
	t.Helper()
	dir := t.TempDir()
	args = append(args, "--seed", "0", "--seconds", "1", "--tiny",
		"--workdir", filepath.Join(dir, "run"), "--results", filepath.Join(dir, "results"))
	var out bytes.Buffer
	code := parentMain(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	return res, code
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced
// and checks that each declared metric is emitted under its name with
// its unit, and that every output check passes.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns workload processes")
	}
	for _, w := range []string{"daily", "study", "restart"} {
		for _, trace := range []string{"0", "1"} {
			res, code := runTiny(t, "--workload", w, "--trace", trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %s: exit %d, correct %t, %d of %d checks failed", w, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace %s: metric %s = %+v (present %t), want unit %s", w, trace, m.name, got, ok, m.unit)
				}
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.name].Value; trace == "0" && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, m.name, v)
				}
			}
		}
	}
}

// TestCorruptCheckpointFails damages the checkpoint the restart
// workload resumes from: the run must report failed checks.
func TestCorruptCheckpointFails(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns workload processes")
	}
	res, code := runTiny(t, "--workload", "restart", "--trace", "0", "--corrupt")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Errorf("corrupted checkpoint: exit %d, correct %t, %d of %d checks failed; want a failure", code, res.Correct, res.Failed, res.Attempted)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and this
// command's in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, command %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := parseOptions([]string{"--workload", w.Name}, &bytes.Buffer{}); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

// TestWorldOffsetsAreDefaultSized rebuilds a sample of the selectable
// worlds and checks their host count against the default world's.
func TestWorldOffsetsAreDefaultSized(t *testing.T) {
	if testing.Short() {
		t.Skip("builds scale-1 worlds")
	}
	want := netsim.New(netsim.DefaultConfig()).MemBytes().NHosts
	for i := 1; i < len(worldOffsets); i += 4 {
		cfg := netsim.DefaultConfig()
		cfg.Seed = worldSeed(int64(i))
		got := netsim.New(cfg).MemBytes().NHosts
		if d := float64(got)/float64(want) - 1; d < -0.01 || d > 0.01 {
			t.Errorf("world %#x: %d hosts, %.2f%% from the default world's %d", cfg.Seed, got, 100*d, want)
		}
	}
}
