// Targetgen: the §7 workflow — learn previously unknown addresses from
// the hitlist with Entropy/IP and 6Gen, probe them, and compare the two
// tools' hit rates and population types.
package main

import (
	"fmt"
	"sort"

	"expanse/internal/bgp"
	"expanse/internal/core"
	"expanse/internal/eip"
	"expanse/internal/ip6"
	"expanse/internal/sixgen"
)

func main() {
	p := core.New(core.TestConfig())
	p.Collect()
	day := p.World.Horizon()
	p.RunDaysFunc(day, p.Cfg.APDWindow, nil)

	// Seeds: non-aliased addresses, split by AS (§7.1: aliased prefixes
	// would artificially inflate response rates).
	perAS := map[bgp.ASN][]ip6.Addr{}
	for _, a := range p.CleanTargets() {
		if asn, ok := p.World.Table.Origin(a); ok {
			perAS[asn] = append(perAS[asn], a)
		}
	}
	// Work on the five largest eligible ASes for a readable report.
	type asSeeds struct {
		asn   bgp.ASN
		seeds []ip6.Addr
	}
	var list []asSeeds
	for asn, seeds := range perAS {
		if len(seeds) >= 50 {
			list = append(list, asSeeds{asn, seeds})
		}
	}
	sort.Slice(list, func(i, j int) bool { return len(list[i].seeds) > len(list[j].seeds) })
	if len(list) > 5 {
		list = list[:5]
	}

	const budget = 800
	fmt.Printf("%-24s %7s %12s %12s %10s %10s\n", "AS", "seeds", "eip-new", "6gen-new", "eip-resp", "6gen-resp")
	for _, e := range list {
		model := eip.Build(e.seeds)
		eipGen := filterNew(p, model.Generate(budget))
		sixGen := filterNew(p, sixgen.Generate(e.seeds, budget, sixgen.Config{}))
		eipResp := len(p.Sweep(eipGen, day).AnyResponsive())
		sixResp := len(p.Sweep(sixGen, day).AnyResponsive())
		fmt.Printf("%-24s %7d %12d %12d %10d %10d\n",
			p.World.Table.AS(e.asn).Name, len(e.seeds), len(eipGen), len(sixGen), eipResp, sixResp)
	}
	fmt.Println("\nthe paper's lesson (§7.3): the tools find complementary sets —")
	fmt.Println("run both and merge.")
}

func filterNew(p *core.Pipeline, gen []ip6.Addr) []ip6.Addr {
	var out []ip6.Addr
	for _, a := range gen {
		if p.World.Table.IsRouted(a) && !p.Hitlist().Contains(a) {
			out = append(out, a)
		}
	}
	return out
}
