package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/holmes-colocation/holmes/internal/cluster"
	"github.com/holmes-colocation/holmes/internal/telemetry"
)

// sim holds one run's simulated outputs. The five metrics repeat exactly
// for a seed; Queries, MinQueries, Ops and FailedOps back their checks and
// the ok_pct arithmetic.
type sim struct {
	TailUs     float64 `json:"tail_us"`
	SLOViolPct float64 `json:"slo_viol_pct"`
	UtilPct    float64 `json:"util_pct"`
	BatchDone  int64   `json:"batch_done"`
	Queries    int64   `json:"queries"`
	MinQueries int64   `json:"min_queries"`
	Ops        int64   `json:"ops"`
	FailedOps  int64   `json:"failed_ops"`
}

// Child modes: each child process does exactly one of these and prints
// one JSON outcome line.
const (
	modeRun      = "run"      // untraced full run
	modeSetup    = "setup"    // set-up only
	modeTraced   = "traced"   // profiled full run with timing wrappers
	modePin      = "pin"      // colo-holmes through scenario.Run
	modeCounters = "counters" // cluster run with node telemetry attached
)

// outcome is what a child process reports to the parent.
type outcome struct {
	WallS     float64            `json:"wall_s"`
	SetupS    float64            `json:"setup_s"`
	SimS      float64            `json:"sim_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Sim       sim                `json:"sim"`
	Failures  []string           `json:"failures,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// runChild executes one mode of one workload in this process.
func runChild(name, mode string, seed uint64) (*outcome, error) {
	switch mode {
	case modeRun, modeSetup, modeTraced, modePin, modeCounters:
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
	var prof bytes.Buffer
	var ms0 runtime.MemStats
	if mode == modeTraced {
		runtime.ReadMemStats(&ms0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	var out *outcome
	var err error
	switch name {
	case "colo-holmes":
		out, err = childColo(mode, seed, start)
	case "fleet-256", "traffic-day":
		out, err = childCluster(name, mode, seed, start)
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	out.WallS = time.Since(start).Seconds()
	if mode == modeTraced {
		pprof.StopCPUProfile()
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		fold, err := foldProfile(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("folding CPU profile: %w", err)
		}
		fold.addLayers(out.Layers, out.WallS)
		out.Layers["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		out.Layers["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	}
	out.PeakRSSMB, err = peakRSSMB()
	return out, err
}

func childColo(mode string, seed uint64, start time.Time) (*outcome, error) {
	spec := coloSpec(seed)
	out := &outcome{SimS: spec.WarmupSeconds + spec.DurationSeconds, Layers: map[string]float64{}}
	if mode == modePin {
		var err error
		out.Sim, err = scenarioSim(spec)
		return out, err
	}
	s, err := buildColo(spec, mode == modeTraced)
	if err != nil {
		return nil, err
	}
	out.SetupS = time.Since(start).Seconds()
	if mode == modeSetup {
		return out, nil
	}
	r := s.run(mode == modeTraced)
	out.Sim = r.sim
	if r.sim.MinQueries < coloMinQueries {
		out.Failures = append(out.Failures, fmt.Sprintf("a service completed only %d measured queries, need >= %d",
			r.sim.MinQueries, coloMinQueries))
	}
	if mode != modeTraced {
		return out, nil
	}
	l := out.Layers
	l["machine.ticks"] = float64(r.ticks)
	l["machine.batched_tick_frac"] = float64(r.batched) / float64(r.ticks)
	steady := time.Since(start).Seconds() - out.SetupS
	l["machine.ns_per_tick"] = steady * 1e9 / float64(r.ticks)
	l["machine.slice_ms.p50"] = quantile(r.sliceMs, 0.5)
	l["machine.slice_ms.p90"] = quantile(r.sliceMs, 0.9)
	l["machine.slice_samples"] = float64(len(r.sliceMs))
	l["kernel.migrations"] = float64(r.migrations)
	l["kernel.steals"] = float64(r.steals)
	l["core.invocations"] = float64(r.inv)
	l["core.deallocations"] = float64(r.dealloc)
	l["core.expansions"] = float64(r.exp)
	var ops, ns int64
	for _, ts := range s.stores {
		ops += ts.ops
		ns += ts.ns
	}
	l["kvstore.ops"] = float64(ops)
	l["kvstore.ns_per_op"] = float64(ns) / float64(ops)
	l["lcservice.queries"] = float64(r.queries)
	return out, nil
}

func childCluster(name, mode string, seed uint64, start time.Time) (*outcome, error) {
	spec := fleetSpec(seed)
	if name == "traffic-day" {
		spec = trafficSpec(seed)
	}
	out := &outcome{SimS: spec.WarmupSeconds + spec.DurationSeconds, Layers: map[string]float64{}}
	var tel *telemetry.Set
	switch mode {
	case modeSetup:
		if _, err := runCluster(setupSpec(spec), nil); err != nil {
			return nil, err
		}
		out.SetupS = time.Since(start).Seconds()
		return out, nil
	case modeCounters:
		tel = telemetry.NewSet()
	case modePin:
		return nil, fmt.Errorf("%s runs on the product path already", name)
	}
	res, err := runCluster(spec, tel)
	if err != nil {
		return nil, err
	}
	out.Sim, out.Failures = clusterSim(res)
	if tel != nil {
		out.Layers = counters(tel)
		return out, nil
	}
	if mode == modeTraced {
		clusterLayers(out.Layers, res)
	}
	return out, nil
}

// clusterLayers records the control-plane and traffic-plane counts of a
// cluster run.
func clusterLayers(l map[string]float64, res *cluster.Result) {
	l["cluster.rounds"] = float64(res.Rounds)
	l["cluster.lod_skip_frac"] = float64(res.LoDSkips) / float64(res.Rounds*res.Spec.Nodes)
	l["cluster.placed"] = float64(res.PlacedBatch)
	l["cluster.evictions"] = float64(res.Evictions)
	l["lcservice.queries"] = float64(res.TotalQueries())
	if tr := res.Traffic; tr != nil {
		l["lcservice.queries"] += float64(tr.Completions)
		l["traffic.arrivals"] = float64(tr.Arrivals)
		l["traffic.retries"] = float64(tr.Retries)
		l["traffic.amplification"] = tr.Amplification()
		l["traffic.scale_ups"] = float64(tr.ScaleUps)
	}
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
