// Package experiments reproduces every table and figure of the paper's
// evaluation (§2, §3 and §6). Each experiment has a Run function that
// returns structured results and a renderer that prints the same rows or
// series the paper reports; cmd/holmes-bench exposes them by id and
// bench_test.go wraps them as testing.B benchmarks.
//
// Time compression: the paper's co-location runs last one hour with
// 60-90 s traffic bursts and ~3 minute batch jobs. The simulated runs
// compress time 10x by default (6-9 s bursts, 0.5-1 s gaps, ~20 s batch
// jobs, 20-60 s measured windows); utilization ratios, latency CDFs and
// job-throughput ratios are invariant under this scaling. EXPERIMENTS.md
// records the factor used for every experiment.
package experiments

import (
	"fmt"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/core"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/hpe"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/lcservice"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/perf"
	"github.com/holmes-colocation/holmes/internal/scenario"
	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/telemetry"
	"github.com/holmes-colocation/holmes/internal/trace"
	"github.com/holmes-colocation/holmes/internal/yarn"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// Setting is one of the three evaluation configurations of §6.1.
type Setting string

// The three settings.
const (
	Alone   Setting = "alone"
	Holmes  Setting = "holmes"
	PerfIso Setting = "perfiso"
)

// Settings lists all three in paper order.
func Settings() []Setting { return []Setting{Alone, Holmes, PerfIso} }

// StoreNames lists the four latency-critical services in paper order.
func StoreNames() []string { return lcservice.StoreNames() }

// WorkloadsFor returns the YCSB workloads evaluated for a store
// (Memcached has no scans, hence no workload E — §6.2).
func WorkloadsFor(store string) []string {
	if store == "memcached" {
		return []string{"a", "b"}
	}
	return []string{"a", "b", "e"}
}

// ColocationConfig parameterizes one co-location run.
type ColocationConfig struct {
	Store    string
	Workload string
	Setting  Setting

	// WarmupNs runs before measurement starts (latencies and counters
	// reset afterwards).
	WarmupNs int64
	// DurationNs is the measured window.
	DurationNs int64
	// RecordCount is the store's preloaded size.
	RecordCount int64
	// RPS is the client's target rate during bursts; 0 picks the
	// per-store default calibrated to ~50% service utilization.
	RPS float64
	// Seed drives the whole run.
	Seed uint64
	// HolmesConfig overrides the daemon settings (Fig. 14's E sweep);
	// nil uses core.DefaultConfig with the compressed quiet period.
	HolmesConfig *core.Config
	// VPISampleNs > 0 records the average VPI across the LC CPUs into
	// VPISeries at this period (Fig. 13).
	VPISampleNs int64
	// TickNs overrides the simulation tick (0 = 10 µs).
	TickNs int64
	// Telemetry, when non-nil, receives metrics and decision events from
	// the daemon, the kernel and the cgroup filesystem for the whole run.
	Telemetry *telemetry.Set
}

// DefaultColocation returns the standard compressed-run configuration.
func DefaultColocation(store, workload string, setting Setting) ColocationConfig {
	return ColocationConfig{
		Store:       store,
		Workload:    workload,
		Setting:     setting,
		WarmupNs:    2_000_000_000,
		DurationNs:  20_000_000_000,
		RecordCount: 50_000,
		Seed:        1,
	}
}

// defaultRPS picks the burst rate for a (store, workload) pair,
// calibrated to roughly half the service's capacity when uncontended —
// the operating point where interference visibly amplifies queueing, as
// on the paper's testbed.
func defaultRPS(store, workload string) float64 {
	if workload == "e" {
		// Scans are 1-2 orders heavier than point queries.
		if store == "redis" {
			return 600
		}
		return 2_000
	}
	if store == "redis" {
		return 10_000 // single worker thread, ~45% utilization
	}
	return 40_000 // four worker threads, ~45% utilization
}

// ColocationResult is the outcome of one run.
type ColocationResult struct {
	Config ColocationConfig

	// Latency is the query latency histogram (ns) over the measured
	// window.
	Latency *stats.Histogram
	// AvgCPUUtil is the machine-wide busy fraction.
	AvgCPUUtil float64
	// LCUtil is the busy fraction of the four (initial) reserved CPUs.
	LCUtil float64
	// CompletedJobs counts batch jobs finished inside the window.
	CompletedJobs int
	// CompletedQueries counts queries finished inside the window.
	CompletedQueries int64
	// VPISeries is the Fig. 13 timeline (empty unless VPISampleNs > 0).
	VPISeries trace.Series
	// Invocations counts daemon ticks over the whole run; the action
	// counters below are Holmes's decisions (zero under other settings).
	Invocations                              int64
	Deallocations, Reallocations, Expansions int64
	// DaemonUtil is the Holmes daemon's own CPU usage fraction (§6.6).
	DaemonUtil float64
	// TelemetryUtil is the share of DaemonUtil modeled as telemetry
	// recording cost (zero when no Telemetry set is attached).
	TelemetryUtil float64
	// ServiceMemBytes is the store's resident memory at the end of the
	// run; BatchMemBytes sums the live batch containers' memory limits
	// (each container is configured with a fixed size, §6.3).
	ServiceMemBytes int64
	BatchMemBytes   int64
}

// batchJobSpec returns the compressed batch job rotation: the HiBench mix
// the evaluation submits continuously.
func batchJobSpec(i int) batch.Spec {
	kinds := []batch.Kind{batch.KMeans, batch.Sort, batch.WordCount, batch.PageRank}
	return batch.Spec{
		Kind:                kinds[i%len(kinds)],
		Containers:          4,
		ThreadsPerContainer: 2,
		WorkUnitsPerThread:  1200, // ~2-4 s per job under contention
		MemoryBytes:         4 << 30,
	}
}

// RunColocation executes one co-location run.
func RunColocation(cfg ColocationConfig) (*ColocationResult, error) {
	if cfg.RPS == 0 {
		cfg.RPS = defaultRPS(cfg.Store, cfg.Workload)
	}
	scheduler, ok := map[Setting]string{Alone: "none", Holmes: "holmes", PerfIso: "perfiso"}[cfg.Setting]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown setting %q", cfg.Setting)
	}

	mcfg := machine.DefaultConfig() // 16 cores, 32 logical CPUs
	mcfg.Seed = cfg.Seed
	if cfg.TickNs > 0 {
		mcfg.TickNs = cfg.TickNs
	}
	m := machine.New(mcfg)
	k := kernel.New(m)
	fs := cgroupfs.NewFS()
	if cfg.Telemetry != nil {
		k.SetTelemetry(cfg.Telemetry)
		fs.SetTelemetry(cfg.Telemetry)
		cfg.Telemetry.PublishInfo("run.store", cfg.Store)
		cfg.Telemetry.PublishInfo("run.workload", cfg.Workload)
		cfg.Telemetry.PublishInfo("run.setting", string(cfg.Setting))
	}

	// The latency-critical service.
	gen, err := ycsb.New(cfg.Workload, cfg.RecordCount, cfg.Seed+17)
	if err != nil {
		return nil, err
	}
	svc, err := lcservice.LaunchStore(k, cfg.Store, cfg.Seed, gen)
	if err != nil {
		return nil, err
	}

	reserved := cpuid.MaskOf(0, 1, 2, 3)
	nonReserved := cpuid.FullMask(mcfg.Topology.LogicalCPUs()).Subtract(reserved)

	// Setting-specific control plane.
	hc := core.DefaultConfig()
	if cfg.HolmesConfig != nil {
		hc = *cfg.HolmesConfig
	} else {
		hc.SNs = 500_000_000 // compressed quiet period (S)
	}
	hc.DaemonCPU = mcfg.Topology.LogicalCPUs() - 1
	hc.Telemetry = cfg.Telemetry
	policy, holmesd, err := scenario.StartPolicy(scheduler, k, fs, reserved, hc)
	if err != nil {
		return nil, err
	}
	defer policy.Stop()
	if err := policy.RegisterLC(svc.PID()); err != nil {
		return nil, err
	}

	// Batch jobs under the co-location settings.
	var nm *yarn.NodeManager
	if cfg.Setting != Alone {
		nm = yarn.NewNodeManager(k, fs, nonReserved)
		jobIdx := 0
		nm.Refill = func() *batch.Spec {
			s := batchJobSpec(jobIdx)
			jobIdx++
			return &s
		}
		for i := 0; i < 6; i++ {
			s := batchJobSpec(jobIdx)
			jobIdx++
			if err := nm.Submit(s); err != nil {
				return nil, err
			}
		}
	}

	// Client traffic: 10x-compressed bursts.
	tr := ycsb.NewTraffic(6e9, 9e9, 5e8, 1e9, cfg.RPS, cfg.Seed+29)
	client := lcservice.NewClient(svc, gen, tr)
	client.Start()

	// Warm up, then reset measurements.
	m.RunFor(cfg.WarmupNs)
	svc.ResetLatencies()
	var busyBase float64
	var lcBase float64
	n := mcfg.Topology.LogicalCPUs()
	for p := 0; p < n; p++ {
		busyBase += m.BusyCycles(p)
	}
	for _, p := range reserved.CPUs() {
		lcBase += m.BusyCycles(p)
	}
	jobsBase := 0
	if nm != nil {
		jobsBase = nm.CompletedCount()
	}
	queriesBase := svc.Completed()
	var daemonBase, telBase float64
	if holmesd != nil {
		daemonBase = holmesd.CPUTimeNs()
		telBase = holmesd.TelemetryCPUTimeNs()
	}

	res := &ColocationResult{Config: cfg}

	// Fig. 13 VPI sampling: an independent observer of the LC CPUs.
	if cfg.VPISampleNs > 0 {
		groups := make([]*perf.VPIGroup, 0, reserved.Count())
		for _, p := range reserved.CPUs() {
			g, err := perf.OpenVPI(m, hpe.StallsMemAny, p)
			if err != nil {
				return nil, err
			}
			groups = append(groups, g)
		}
		res.VPISeries.Name = fmt.Sprintf("vpi-%s-%s-%s", cfg.Store, cfg.Workload, cfg.Setting)
		var vpiHist *telemetry.Histogram
		if cfg.Telemetry != nil {
			vpiHist = cfg.Telemetry.Registry.Histogram("experiment_lc_vpi",
				"observer-sampled mean VPI across the reserved CPUs", 0.1, 10_000, 5)
		}
		stopVPI := m.SchedulePeriodic(cfg.VPISampleNs, func(now int64) {
			sum := 0.0
			for _, g := range groups {
				sum += g.Sample()
			}
			avg := sum / float64(len(groups))
			res.VPISeries.Add(now, avg)
			vpiHist.Observe(avg)
		})
		defer stopVPI()
	}

	// Measured window.
	m.RunFor(cfg.DurationNs)

	// Collect.
	res.Latency = svc.Latencies()
	var busyNow, lcNow float64
	for p := 0; p < n; p++ {
		busyNow += m.BusyCycles(p)
	}
	for _, p := range reserved.CPUs() {
		lcNow += m.BusyCycles(p)
	}
	denom := mcfg.FreqGHz * float64(cfg.DurationNs)
	res.AvgCPUUtil = (busyNow - busyBase) / (denom * float64(n))
	res.LCUtil = (lcNow - lcBase) / (denom * float64(reserved.Count()))
	if nm != nil {
		res.CompletedJobs = nm.CompletedCount() - jobsBase
	}
	res.CompletedQueries = svc.Completed() - queriesBase
	if holmesd != nil {
		res.Invocations, res.Deallocations, res.Reallocations, res.Expansions = holmesd.Stats()
		res.DaemonUtil = (holmesd.CPUTimeNs() - daemonBase) / float64(cfg.DurationNs)
		res.TelemetryUtil = (holmesd.TelemetryCPUTimeNs() - telBase) / float64(cfg.DurationNs)
	}
	if mr, ok := svc.Store().(kvstore.MemoryReporter); ok {
		res.ServiceMemBytes = mr.ApproxMemory()
	}
	if nm != nil {
		for _, job := range nm.RunningJobs() {
			res.BatchMemBytes += job.Spec.MemoryBytes * int64(job.Spec.Containers)
		}
	}
	client.Stop()
	return res, nil
}
