// Dailyscan: operate the hitlist as a service — the §11 use case. Runs a
// week of daily measurements over the curated hitlist and prints, per
// day, the responsive population and its stability versus day 0 (the
// data behind Figure 8 and the published daily snapshots).
package main

import (
	"fmt"

	"expanse/internal/core"
	"expanse/internal/ip6"
	"expanse/internal/wire"
)

func main() {
	p := core.New(core.TestConfig())
	p.Collect()
	day0 := p.World.Horizon()
	p.RunDaysFunc(day0, p.Cfg.APDWindow, nil)
	targets := p.CleanTargets()
	fmt.Printf("curated hitlist: %d targets\n\n", len(targets))

	// Day 0 establishes the responsive baseline that the "service"
	// publishes; subsequent days track stability and churn.
	baselineScan := p.Sweep(targets, day0)
	baseline := baselineScan.AnyResponsive()
	base := ip6.NewSet(len(baseline))
	base.AddSlice(baseline)
	fmt.Printf("day 0 responsive snapshot: %d addresses\n", base.Len())

	fmt.Printf("\n%-5s %10s %10s %8s %8s\n", "day", "responsive", "of-base", "lost", "icmp")
	for d := 0; d < 7; d++ {
		scan := p.Sweep(baseline, day0+d)
		resp := scan.AnyResponsive()
		lost := base.Len() - len(resp)
		fmt.Printf("%-5d %10d %9.1f%% %8d %8d\n",
			d, len(resp), 100*float64(len(resp))/float64(base.Len()), lost,
			scan.Count(wire.ICMPv6))
	}

	fmt.Println("\ntime-to-measurement lesson (§11): server addresses stay")
	fmt.Println("responsive for weeks; client and CPE addresses must be measured")
	fmt.Println("within minutes — compare the Scamper and DL rows of Figure 8.")
}
