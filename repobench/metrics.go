package main

import (
	"regexp"
	"sort"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct {
	name, unit, better string
}

// endToEnd are reported by every untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_speed", "sim-s/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"lc_tail_us", "us", "lower"},
	{"slo_ok_pct", "%", "higher"},
	{"cpu_util_pct", "%", "higher"},
	{"batch_done", "count", "higher"},
	{"ok_pct", "%", "higher"},
}

// perLayer are reported by every traced run. A metric a workload does not
// exercise (the traffic plane on colo-holmes, the store wrapper on the
// cluster workloads) reads 0.
var perLayer = []metricDef{
	{"machine.host_frac", "fraction", "lower"},
	{"machine.ticks", "count", "lower"},
	{"machine.batched_tick_frac", "fraction", "higher"},
	{"machine.ns_per_tick", "ns", "lower"},
	{"machine.slice_ms.p50", "ms", "lower"},
	{"machine.slice_ms.p90", "ms", "lower"},
	{"machine.slice_samples", "count", "higher"},
	{"kernel.host_frac", "fraction", "lower"},
	{"kernel.migrations", "count", "lower"},
	{"kernel.steals", "count", "lower"},
	{"core.host_frac", "fraction", "lower"},
	{"core.invocations", "count", "lower"},
	{"core.deallocations", "count", "lower"},
	{"core.expansions", "count", "lower"},
	{"kvstore.host_frac", "fraction", "lower"},
	{"kvstore.ops", "count", "lower"},
	{"kvstore.ns_per_op", "ns", "lower"},
	{"ycsb.host_frac", "fraction", "lower"},
	{"lcservice.host_frac", "fraction", "lower"},
	{"lcservice.preload_s", "s", "lower"},
	{"lcservice.queries", "count", "higher"},
	{"cluster.host_frac", "fraction", "lower"},
	{"cluster.rounds", "count", "lower"},
	{"cluster.lod_skip_frac", "fraction", "higher"},
	{"cluster.placed", "count", "higher"},
	{"cluster.evictions", "count", "lower"},
	{"runner.cpu_per_wall", "cpu/s", "higher"},
	{"traffic.host_frac", "fraction", "lower"},
	{"traffic.arrivals", "count", "higher"},
	{"traffic.retries", "count", "lower"},
	{"traffic.amplification", "ratio", "lower"},
	{"traffic.scale_ups", "count", "lower"},
	{"go.gc_frac", "fraction", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"profile.samples", "count", "higher"},
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether d satisfies the benchmark's naming rules.
func validMetric(d metricDef) bool {
	return metricName.MatchString(d.name) && metricUnit.MatchString(d.unit) &&
		(d.better == "lower" || d.better == "higher")
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// simSpeed is simulated seconds per host second of steady-state
// simulation: the run's wall time less its set-up time.
func simSpeed(simS, wallS, setupS float64) float64 {
	steady := wallS - setupS
	if steady <= 0 {
		return 0
	}
	return simS / steady
}

// okPct is the share of simulated operations that did not fail. A run
// whose checks failed counts every operation as failed.
func okPct(ops, failedOps int64, checksPassed bool) float64 {
	if !checksPassed || ops <= 0 {
		return 0
	}
	return 100 * float64(ops-failedOps) / float64(ops)
}

// simMean is the simulated metrics averaged over a run's repeats: the
// latency, utilisation and completion means, and the SLO and failure
// shares pooled over every query and operation.
type simMean struct {
	TailUs, SLOViolPct, UtilPct, BatchDone float64
	Ops, FailedOps                         int64
}

func averageSims(sims []sim) simMean {
	var a simMean
	var queries, bad float64
	for _, s := range sims {
		a.TailUs += s.TailUs
		a.UtilPct += s.UtilPct
		a.BatchDone += float64(s.BatchDone)
		queries += float64(s.Queries)
		bad += s.SLOViolPct / 100 * float64(s.Queries)
		a.Ops += s.Ops
		a.FailedOps += s.FailedOps
	}
	n := float64(len(sims))
	a.TailUs /= n
	a.UtilPct /= n
	a.BatchDone /= n
	if queries > 0 {
		a.SLOViolPct = 100 * bad / queries
	}
	return a
}
