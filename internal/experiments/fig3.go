package experiments

import (
	"fmt"
	"strings"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/lcservice"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/trace"
	"github.com/holmes-colocation/holmes/internal/workload"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// Fig3Setting is one of the three §2.2 placements for the Redis
// motivation experiment.
type Fig3Setting string

// The Fig. 3 settings.
const (
	Fig3Alone      Fig3Setting = "alone"       // Redis alone, HT enabled
	Fig3CoSeparate Fig3Setting = "co-separate" // batch on separate physical cores
	Fig3CoHyper    Fig3Setting = "co-hyper"    // batch may use Redis's siblings
)

// Fig3Settings lists the settings in paper order.
func Fig3Settings() []Fig3Setting {
	return []Fig3Setting{Fig3Alone, Fig3CoSeparate, Fig3CoHyper}
}

// Fig3Result holds the Redis latency distributions under the three
// placements.
type Fig3Result struct {
	Settings map[Fig3Setting]stats.Summary
	CDFs     map[Fig3Setting][]stats.CDFPoint
}

// RunFig3 reproduces the motivation experiment: Redis under YCSB
// workload-a with a Spark-KMeans batch job placed per setting.
func RunFig3(durationNs int64, seed uint64) (Fig3Result, error) {
	out := Fig3Result{
		Settings: map[Fig3Setting]stats.Summary{},
		CDFs:     map[Fig3Setting][]stats.CDFPoint{},
	}
	for _, setting := range Fig3Settings() {
		mcfg := machine.DefaultConfig()
		mcfg.Seed = seed
		m := machine.New(mcfg)
		k := kernel.New(m)

		gen, err := ycsb.New("a", 50_000, seed+17)
		if err != nil {
			return out, err
		}
		svc, err := lcservice.LaunchStore(k, "redis", seed, gen)
		if err != nil {
			return out, err
		}

		// Redis pinned on four logical CPUs (0-3) in every setting.
		lcMask := cpuid.MaskOf(0, 1, 2, 3)
		if err := svc.Process().SetAffinity(lcMask); err != nil {
			return out, err
		}

		// Batch placement per setting. The job is a KMeans-like kernel
		// with as many threads as it has CPUs.
		if setting != Fig3Alone {
			all := cpuid.FullMask(mcfg.Topology.LogicalCPUs())
			mask := all.Subtract(lcMask)
			if setting == Fig3CoSeparate {
				for _, lc := range lcMask.CPUs() {
					mask.Clear(mcfg.Topology.SiblingOf(lc))
				}
			}
			bp := k.Spawn("kmeans", mask.Count())
			if err := bp.SetAffinity(mask); err != nil {
				return out, err
			}
			unit := batch.KMeans.UnitCost()
			for _, th := range bp.Threads() {
				startChain(th, unit)
			}
		}

		// Constant workload-a traffic at the standard Redis rate.
		tr := ycsb.NewTraffic(1e9, 2e9, 1, 2, defaultRPS("redis", "a"), seed+29)
		client := lcservice.NewClient(svc, gen, tr)
		client.StartServing()

		m.RunFor(durationNs / 5) // warmup
		svc.ResetLatencies()
		m.RunFor(durationNs)
		client.Stop()

		out.Settings[setting] = svc.Latencies().Summarize()
		out.CDFs[setting] = svc.Latencies().CDF(20)
	}
	return out, nil
}

// startChain keeps a kernel thread busy with identical work items.
func startChain(th *kernel.Thread, c workload.Cost) {
	var push func(int64)
	push = func(int64) {
		th.HW.Push(workload.Item{Cost: c, OnComplete: push})
	}
	push(0)
}

// Render prints the Fig. 3 comparison.
func (r Fig3Result) Render() string {
	tb := trace.NewTable("Fig 3: Redis query latency under three placements (ns)",
		"setting", "mean", "p50", "p90", "p99")
	for _, s := range Fig3Settings() {
		sum := r.Settings[s]
		tb.AddRow(string(s), sum.Mean, sum.P50, sum.P90, sum.P99)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	alone := r.Settings[Fig3Alone]
	hyper := r.Settings[Fig3CoHyper]
	sep := r.Settings[Fig3CoSeparate]
	if alone.Mean > 0 {
		fmt.Fprintf(&b, "\nCo-hyper vs Co-separate: avg %.2fx, p99 %.2fx (paper: 2.0x, 1.3x)\n",
			hyper.Mean/sep.Mean, hyper.P99/sep.P99)
		fmt.Fprintf(&b, "Co-separate vs Alone:    avg %.2fx (paper: ~1.0x)\n", sep.Mean/alone.Mean)
	}
	b.WriteByte('\n')
	plot := trace.NewPlot("CDF of Redis query latency", "latency ns", "fraction of queries")
	plot.LogX = true
	for _, s := range Fig3Settings() {
		plot.AddCDF(string(s), r.CDFs[s])
	}
	b.WriteString(plot.String())
	b.WriteString("\nCDF series (latency_ns fraction):\n")
	for _, s := range Fig3Settings() {
		fmt.Fprintf(&b, "# %s\n", s)
		for _, p := range r.CDFs[s] {
			fmt.Fprintf(&b, "%.0f\t%.3f\n", p.Value, p.Fraction)
		}
	}
	return b.String()
}
