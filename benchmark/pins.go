package main

import (
	_ "embed"
	"encoding/json"
	"sort"
)

// pins.json holds the deterministic outputs of the default seed at the
// default plan (BENCHMARK.json's run_seconds): the final epoch's
// Digest, the hitlist size, the APD probe budget, the clean-target
// count, the responsive count of the final sweep and the elbow k. A run
// of a pinned (workload, seed, days) must reproduce them exactly.
//
//go:embed pins.json
var pinsJSON []byte

type pin struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Days     int               `json:"days"`
	Untraced map[string]string `json:"untraced"`
	Traced   map[string]string `json:"traced"`
}

// checkPins compares a run's outputs with the pins of its workload,
// seed and day count (untraced or traced outputs, per mode).
func checkPins(rep *report, mode string, got map[string]string) {
	var pins []pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		rep.Ops.check(false, "pins.json: %v", err)
		return
	}
	for _, p := range pins {
		if rep.Tiny || p.Workload != rep.Workload || p.Seed != rep.Seed || p.Days != rep.Days {
			continue
		}
		want := p.Untraced
		if mode == "traced" {
			want = p.Traced
		}
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rep.Ops.check(got[k] == want[k], "%s %s = %q, pinned %q", mode, k, got[k], want[k])
		}
	}
}
