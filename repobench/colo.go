package main

import (
	"fmt"
	"time"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/cgroupfs"
	"github.com/holmes-colocation/holmes/internal/core"
	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/kvstore/redis"
	"github.com/holmes-colocation/holmes/internal/kvstore/rocksdb"
	"github.com/holmes-colocation/holmes/internal/lcservice"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/scenario"
	"github.com/holmes-colocation/holmes/internal/yarn"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// coloSLONs is the per-query latency SLO colo-holmes judges its services
// against: the cluster control plane's default of 200 µs.
const coloSLONs = 200_000

// coloMinQueries is the fewest measured queries each colo-holmes service
// must complete for its p99 to count.
const coloMinQueries = 50_000

// coloSliceNs is the simulated slice the traced run advances the machine
// by between host-clock readings (machine.slice_ms).
const coloSliceNs = 100_000_000

// coloSpec is the two-tenant server of the scenario package's example
// document: one 16-core SMT machine under the Holmes daemon, bursty redis
// on YCSB-a beside steady rocksdb on YCSB-b, and a continuous batch
// stream on the remaining CPUs.
func coloSpec(seed uint64) scenario.Spec {
	return scenario.Spec{
		Name:      "colo-holmes",
		Machine:   scenario.MachineSpec{Cores: 16},
		Scheduler: "holmes",
		Holmes:    &scenario.HolmesSpec{E: 40, IntervalUs: 100, ReservedCPUs: 4},
		Services: []scenario.ServiceSpec{
			{Store: "redis", Workload: "a", RPS: 10_000,
				BurstSeconds: [2]float64{6, 9}, GapSeconds: [2]float64{0.5, 1}},
			{Store: "rocksdb", Workload: "b", RPS: 20_000},
		},
		Batch: &scenario.BatchSpec{Continuous: true, ConcurrentJobs: 3,
			Kinds: []string{"kmeans", "sort", "pagerank"}},
		WarmupSeconds:   2,
		DurationSeconds: 15,
		Seed:            seed,
	}
}

// coloServer is colo-holmes assembled from the layer calls scenario.Run
// makes, in the same order and with the same seeds, so the benchmark can
// time set-up on its own and put a timing wrapper around each store.
// The benchmark checks that the assembly still equals scenario.Run.
type coloServer struct {
	spec     scenario.Spec
	m        *machine.Machine
	k        *kernel.Kernel
	daemon   *core.Daemon
	nm       *yarn.NodeManager
	services []*lcservice.Service
	clients  []*lcservice.Client
	stores   []*timedStore // nil entries when untimed
}

// buildColo runs colo-holmes's set-up: machine, kernel, stores and their
// preload, the daemon, and the batch stream. timed wraps every store in a
// timedStore.
func buildColo(spec scenario.Spec, timed bool) (*coloServer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	mcfg := machine.DefaultConfig()
	mcfg.Topology = cpuid.Topology{Sockets: 1, Cores: spec.Machine.Cores}
	if spec.Seed != 0 {
		mcfg.Seed = spec.Seed
	}
	s := &coloServer{spec: spec}
	s.m = machine.New(mcfg)
	s.k = kernel.New(s.m)
	fs := cgroupfs.NewFS()
	nLCPU := mcfg.Topology.LogicalCPUs()
	reservedN := spec.Holmes.ReservedCPUs
	reserved := cpuid.Mask{}
	for i := 0; i < reservedN; i++ {
		reserved.Set(i)
	}

	for i, ss := range spec.Services {
		var store kvstore.Store
		switch ss.Store {
		case "redis":
			cfg := redis.DefaultConfig()
			cfg.Seed = mcfg.Seed + uint64(i)
			store = redis.New(cfg)
		case "rocksdb":
			cfg := rocksdb.DefaultConfig()
			cfg.Seed = mcfg.Seed + uint64(i)
			store = rocksdb.New(cfg)
		default:
			return nil, fmt.Errorf("colo-holmes: store %q not wired", ss.Store)
		}
		var ts *timedStore
		if timed {
			var wrapped kvstore.Store
			ts, wrapped = wrapStore(store)
			store = wrapped
		}
		s.stores = append(s.stores, ts)
		svc := lcservice.Launch(s.k, store, lcservice.DefaultConfigFor(ss.Store))
		wl, err := ycsb.ByName(ss.Workload)
		if err != nil {
			return nil, err
		}
		gcfg := ycsb.DefaultConfig(wl)
		gcfg.RecordCount = 50_000
		gcfg.Seed = mcfg.Seed + 17 + uint64(i)*101
		gen := ycsb.NewGenerator(gcfg)
		svc.Load(gen)
		var tr *ycsb.Traffic
		if ss.BurstSeconds[0] > 0 {
			tr = ycsb.NewTraffic(
				int64(ss.BurstSeconds[0]*1e9), int64(ss.BurstSeconds[1]*1e9),
				int64(ss.GapSeconds[0]*1e9), int64(ss.GapSeconds[1]*1e9),
				ss.RPS, mcfg.Seed+29+uint64(i)*7)
		} else {
			tr = ycsb.NewTraffic(1e9, 2e9, 1, 2, ss.RPS, mcfg.Seed+29+uint64(i)*7)
		}
		s.services = append(s.services, svc)
		s.clients = append(s.clients, lcservice.NewClient(svc, gen, tr))
	}

	hc := core.DefaultConfig()
	hc.ReservedCPUs = reservedN
	hc.SNs = 500_000_000
	hc.DaemonCPU = nLCPU - 1
	hc.E = spec.Holmes.E
	hc.IntervalNs = spec.Holmes.IntervalUs * 1000
	var err error
	if s.daemon, err = core.Start(s.k, fs, hc); err != nil {
		return nil, err
	}
	for _, svc := range s.services {
		if err := s.daemon.RegisterLC(svc.PID()); err != nil {
			return nil, err
		}
	}

	b := spec.Batch
	s.nm = yarn.NewNodeManager(s.k, fs, cpuid.FullMask(nLCPU).Subtract(reserved))
	var kinds []batch.Kind
	for _, name := range b.Kinds {
		for _, kd := range batch.Kinds() {
			if kd.String() == name {
				kinds = append(kinds, kd)
			}
		}
	}
	mk := func(i int) batch.Spec {
		return batch.Spec{Kind: kinds[i%len(kinds)], Containers: 4,
			ThreadsPerContainer: 2, WorkUnitsPerThread: 1200, MemoryBytes: 4 << 30}
	}
	idx := 0
	s.nm.Refill = func() *batch.Spec {
		bs := mk(idx)
		idx++
		return &bs
	}
	s.nm.MaxConcurrentJobs = b.ConcurrentJobs
	for i := 0; i < s.nm.MaxConcurrentJobs+2; i++ {
		if err := s.nm.Submit(mk(idx)); err != nil {
			return nil, err
		}
		idx++
	}
	for _, c := range s.clients {
		c.Start()
	}
	return s, nil
}

// coloRun is what one colo-holmes simulation yields beyond its timings.
type coloRun struct {
	sim                sim
	sliceMs            []float64 // host ms per coloSliceNs simulated (sliced runs only)
	ticks, batched     int64
	migrations, steals int64
	inv, dealloc, exp  int64
	queries            int64
}

// run advances warmup and the measured window and collects the outcome.
// sliced advances in coloSliceNs steps and times each one.
func (s *coloServer) run(sliced bool) coloRun {
	var out coloRun
	advance := func(ns int64) {
		if !sliced {
			s.m.RunFor(ns)
			return
		}
		for done := int64(0); done < ns; done += coloSliceNs {
			t := time.Now()
			s.m.RunFor(min(coloSliceNs, ns-done))
			out.sliceMs = append(out.sliceMs, float64(time.Since(t))/1e6)
		}
	}
	advance(int64(s.spec.WarmupSeconds * 1e9))
	for _, svc := range s.services {
		svc.ResetLatencies()
	}
	nLCPU := s.m.Topology().LogicalCPUs()
	busy := func() float64 {
		var sum float64
		for p := 0; p < nLCPU; p++ {
			sum += s.m.BusyCycles(p)
		}
		return sum
	}
	busyBase := busy()
	jobsBase := s.nm.CompletedCount()
	durNs := int64(s.spec.DurationSeconds * 1e9)
	advance(durNs)

	var submitted, failed, sloBad int64
	for _, svc := range s.services {
		sum := svc.Latencies().Summarize()
		if p99 := sum.P99 / 1e3; p99 > out.sim.TailUs {
			out.sim.TailUs = p99
		}
		n := svc.Latencies().Count()
		out.sim.Queries += n
		sloBad += svc.Latencies().CountAbove(coloSLONs)
		if n < out.sim.MinQueries || out.sim.MinQueries == 0 {
			out.sim.MinQueries = n
		}
		out.queries += svc.Completed()
		submitted += svc.Submitted()
		failed += svc.Shed() + svc.Expired()
	}
	for _, c := range s.clients {
		c.Stop()
	}
	if out.sim.Queries > 0 {
		out.sim.SLOViolPct = 100 * float64(sloBad) / float64(out.sim.Queries)
	}
	cfg := s.m.Config()
	// The same float operations, in the same order, as scenario.Run.
	out.sim.UtilPct = 100 * ((busy() - busyBase) / (cfg.FreqGHz * float64(durNs) * float64(nLCPU)))
	out.sim.BatchDone = int64(s.nm.CompletedCount() - jobsBase)
	// Every batch job the stream launched is an operation; none can fail.
	out.sim.Ops = submitted + int64(s.nm.CompletedCount()+s.nm.Running()+s.nm.QueueLen())
	out.sim.FailedOps = failed
	out.ticks = s.m.Now() / cfg.TickNs
	out.batched = s.m.BatchedTicks()
	out.migrations, out.steals = s.k.Migrations()
	out.inv, out.dealloc, _, out.exp = s.daemon.Stats()
	s.daemon.Stop()
	return out
}

// scenarioSim runs spec through scenario.Run, the product path, and
// returns the simulated outputs its report carries: worst p99, measured
// queries, utilisation and completed batch jobs.
func scenarioSim(spec scenario.Spec) (sim, error) {
	rep, err := scenario.Run(spec)
	if err != nil {
		return sim{}, err
	}
	var s sim
	for _, sr := range rep.Services {
		s.TailUs = max(s.TailUs, sr.Summary.P99/1e3)
		s.Queries += int64(sr.Summary.Count)
	}
	s.UtilPct = 100 * rep.AvgCPUUtil
	s.BatchDone = int64(rep.CompletedJobs)
	return s, nil
}

// timedStore times every store call the service makes. It forwards
// kvstore.MemoryReporter (all four stores report memory); timedBgStore
// adds kvstore.Backgrounder for the stores with maintenance threads, so
// lcservice sees exactly the interfaces the bare store has and the
// simulation is unchanged.
type timedStore struct {
	inner kvstore.Store
	ops   int64
	ns    int64
}

type timedBgStore struct {
	*timedStore
	bg kvstore.Backgrounder
}

// wrapStore returns the timing wrapper and the store to hand the service.
func wrapStore(inner kvstore.Store) (*timedStore, kvstore.Store) {
	ts := &timedStore{inner: inner}
	if bg, ok := inner.(kvstore.Backgrounder); ok {
		return ts, timedBgStore{ts, bg}
	}
	return ts, ts
}

func (s *timedStore) done(start time.Time) {
	s.ops++
	s.ns += int64(time.Since(start))
}

func (s *timedStore) Name() string { return s.inner.Name() }
func (s *timedStore) Len() int     { return s.inner.Len() }

func (s *timedStore) Read(key string) kvstore.Result {
	defer s.done(time.Now())
	return s.inner.Read(key)
}

func (s *timedStore) Update(key string, value []byte) kvstore.Result {
	defer s.done(time.Now())
	return s.inner.Update(key, value)
}

func (s *timedStore) Insert(key string, value []byte) kvstore.Result {
	defer s.done(time.Now())
	return s.inner.Insert(key, value)
}

func (s *timedStore) Scan(start string, count int) kvstore.Result {
	defer s.done(time.Now())
	return s.inner.Scan(start, count)
}

func (s *timedStore) ApproxMemory() int64 {
	if mr, ok := s.inner.(kvstore.MemoryReporter); ok {
		return mr.ApproxMemory()
	}
	return 0
}

func (s timedBgStore) DrainBackground() []kvstore.BackgroundTask {
	return s.bg.DrainBackground()
}
