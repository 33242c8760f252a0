package main

import (
	"fmt"

	"github.com/holmes-colocation/holmes/internal/cluster"
	"github.com/holmes-colocation/holmes/internal/scenario"
	"github.com/holmes-colocation/holmes/internal/telemetry"
)

// clusterWorkers is the node-advance parallelism of both cluster
// workloads: one worker per core of the 2-core machines the benchmark is
// sized for.
const clusterWorkers = 2

// Minimum measured traffic before a cluster run's latency figures count;
// the same floors the scale and traffic experiments gate their verdicts on.
const (
	fleetMinQueries    = 100
	trafficMinArrivals = 2000
)

// fleetSpec is the scale experiment's scoring arm at its quick size: 256
// nodes of 8 cores with level-of-detail fast-forward, eight services and a
// 160-pod BestEffort stream.
func fleetSpec(seed uint64) cluster.Spec {
	spec := cluster.DefaultSpec()
	spec.Name = "fleet-256"
	spec.Nodes = 256
	spec.Placer = cluster.PlacerScore
	spec.LoD = cluster.LoDAuto
	spec.WarmupSeconds = 0.5
	spec.DurationSeconds = 2
	spec.Seed = seed
	stores := []struct {
		store string
		rps   float64
	}{{"redis", 10_000}, {"rocksdb", 40_000}, {"memcached", 40_000}, {"wiredtiger", 40_000}}
	spec.Services = nil
	for i := 0; i < 8; i++ {
		s := stores[i%len(stores)]
		spec.Services = append(spec.Services, cluster.ServiceSpec{
			Name: fmt.Sprintf("%s-%d", s.store, i/len(stores)), Store: s.store,
			Workload: "a", RPS: s.rps,
		})
	}
	spec.Batch = cluster.BatchStream{Pods: 160, PodsPerRound: 8, Containers: 2,
		ThreadsPerContainer: 2, WorkUnitsPerThread: 600}
	return spec
}

// trafficSpec is a compressed diurnal day over five nodes: the default
// topology's replicated memcached frontend at 600k users behind the full
// resilience stack, with a 48-pod backfill stream.
func trafficSpec(seed uint64) cluster.Spec {
	spec := cluster.DefaultSpec()
	spec.Name = "traffic-day"
	spec.Nodes = 5
	spec.Services = nil
	spec.WarmupSeconds = 1
	spec.DurationSeconds = 12
	spec.Seed = seed
	topo := scenario.DefaultTopology(600_000, spec.WarmupSeconds+spec.DurationSeconds)
	for i := range topo.Services {
		topo.Services[i].Resilience = scenario.StormResilience()
	}
	spec.Topology = &topo
	spec.Batch = cluster.BatchStream{Pods: 48, PodsPerRound: 2, Containers: 2,
		ThreadsPerContainer: 2, WorkUnitsPerThread: 900}
	return spec
}

// setupSpec is spec cut to one heartbeat round with no warmup: its wall
// time is node boot, service placement and store preload, plus one round.
func setupSpec(spec cluster.Spec) cluster.Spec {
	spec.WarmupSeconds = 0
	hb := spec.HeartbeatMs
	if hb == 0 {
		hb = 50
	}
	spec.DurationSeconds = float64(hb) / 1e3
	return spec
}

// runCluster runs spec on the product path. tel, when non-nil, collects
// the node daemons' and kernels' counters.
func runCluster(spec cluster.Spec, tel *telemetry.Set) (*cluster.Result, error) {
	return cluster.Run(spec, cluster.RunOptions{Workers: clusterWorkers, Telemetry: tel})
}

// clusterSim extracts the simulated metrics of a cluster run and checks
// its invariants, returning a description of each failed check.
func clusterSim(res *cluster.Result) (sim, []string) {
	var s sim
	var bad []string
	if res.BatchArrived != res.BatchDoneTotal+res.BatchRunning+res.BatchQueued+res.BatchFailed {
		bad = append(bad, fmt.Sprintf("pod stream not conserved: %d arrived != %d done + %d running + %d queued + %d failed",
			res.BatchArrived, res.BatchDoneTotal, res.BatchRunning, res.BatchQueued, res.BatchFailed))
	}
	s.UtilPct = 100 * res.ClusterUtil
	s.BatchDone = int64(res.BatchCompleted)
	s.Ops = int64(res.BatchArrived)
	s.FailedOps = int64(res.BatchFailed)
	if tr := res.Traffic; tr != nil {
		if !tr.Conserved {
			bad = append(bad, fmt.Sprintf("requests not conserved: %d arrivals != %d completed + %d dropped + %d shed + %d expired + %d lost + %d in flight",
				tr.Arrivals, tr.Completions, tr.Drops, tr.Shed, tr.Expired, tr.Lost, tr.InFlight))
		}
		if tr.Arrivals < trafficMinArrivals {
			bad = append(bad, fmt.Sprintf("only %d arrivals, need >= %d", tr.Arrivals, trafficMinArrivals))
		}
		front := tr.Services[0]
		// The frontend serves nearly every request in ~43 µs with a tail
		// of about 1% near 60 µs, so its p99 sits on the edge of that tail
		// and flips between the two with the seed; p99.9 lies inside it.
		s.TailUs = front.Summary.P999 / 1e3
		s.Queries = front.Queries
		s.MinQueries = front.Queries
		s.SLOViolPct = 100 * front.SLOViolations
		s.Ops += tr.Arrivals
		s.FailedOps += tr.Drops + tr.Shed + tr.Expired + tr.Lost
		return s, bad
	}
	s.TailUs = res.MeanP99 / 1e3
	s.Queries = res.TotalQueries()
	s.MinQueries = s.Queries
	s.SLOViolPct = 100 * res.SLOViolationRatio
	for _, sr := range res.Services {
		s.Ops += sr.Queries
		if sr.Lost {
			bad = append(bad, fmt.Sprintf("service %s lost its node", sr.Name))
		}
	}
	if s.Queries < fleetMinQueries {
		bad = append(bad, fmt.Sprintf("only %d measured queries, need >= %d", s.Queries, fleetMinQueries))
	}
	return s, bad
}

// counters reads the node-level counters a telemetry set collected.
func counters(tel *telemetry.Set) map[string]float64 {
	out := map[string]float64{}
	for name, key := range map[string]string{
		"holmes_invocations_total":   "core.invocations",
		"holmes_deallocations_total": "core.deallocations",
		"holmes_expansions_total":    "core.expansions",
		"kernel_migrations_total":    "kernel.migrations",
		"kernel_steals_total":        "kernel.steals",
	} {
		out[key] = float64(tel.Registry.Counter(name, "").Value())
	}
	return out
}
