// Package detrandexempt is the detrand carve-out fixture: the analyzer
// runs with this path in both Deterministic and Exempt (modeling
// internal/prof, where measuring wall-clock is the point), so nothing
// here is flagged.
package detrandexempt

import "time"

// Elapsed measures real time — sanctioned in benchmark harnesses.
func Elapsed(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}
