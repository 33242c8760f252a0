// Command repobench is the repository's benchmark: it runs one named
// workload of the Holmes simulator for a seed and prints the metrics
// BENCHMARK.json declares, ending with one JSON line.
//
//	bash repobench/run.sh --workload colo-holmes --seed 1 --seconds 35 --trace 0
//
// run.sh builds the program from the checkout (outputs under
// .bench_build/) and runs it. The program drives the simulator only
// through public package functions (scenario, machine, kernel, core,
// lcservice, kvstore, ycsb, yarn and cluster.Run) and times the calls from
// outside, so no simulator code carries benchmark hooks. Each simulation
// runs in a child process of its own, so every run starts from an empty
// heap and reports its own peak RSS.
//
// # Untraced runs (--trace 0)
//
// An invocation makes N set-up runs and N full runs, where N is --seconds
// over the workload's nominal repeat time (at least 3). Repeat i simulates
// the inputs of the i-th seed derived from --seed, so the simulated
// metrics average several draws and a seed always yields the same ones.
// Host-time figures are medians over the repeats.
//
//	wall_s        host s of one full run: set-up plus simulation
//	setup_s       host s before steady-state simulation: machine, kernel,
//	              daemon, store preload and node boot. colo-holmes times its
//	              set-up calls directly; the cluster workloads time the same
//	              spec cut to one heartbeat round with no warmup
//	sim_speed     simulated s per host s of steady state,
//	              sim_s / (wall_s - setup_s)
//	peak_rss_mb   VmHWM of the child that ran the workload
//	lc_tail_us    simulated LC tail latency, mean over the repeats:
//	              colo-holmes the worse p99 of its two services, fleet-256
//	              cluster.Result.MeanP99, traffic-day the p99.9 of the
//	              frontend's merged replicas (its p99 sits on the edge of a
//	              1% tail and swings 43-60 µs with the seed)
//	slo_ok_pct    share of measured LC queries within their SLO (200 µs)
//	cpu_util_pct  machine or fleet busy share over the measured window
//	batch_done    batch jobs or pods completed in the measured window
//	ok_pct        share of simulated operations (LC requests and batch
//	              pods) that did not fail; a request fails when it is
//	              dropped, shed, expired or lost, a pod when it is dropped.
//	              If any check fails, every operation counts as failed
//
// The last five are simulated: they repeat exactly for a seed, a change
// that only speeds up the simulator must leave them identical, and they
// move only when a change alters the model. slo_ok_pct and ok_pct are the
// complements of the SLO-violation and failure shares, because those
// shares are exactly 0 on some workloads.
//
// Checks, each of which marks the invocation incorrect: every batch pod
// is accounted for (BatchArrived == BatchDoneTotal + BatchRunning +
// BatchQueued + BatchFailed) on both cluster workloads; traffic-day's
// request accounting is conserved; each workload meets its minimum query
// count; no simulated service loses its node.
//
// # Traced runs (--trace 1)
//
// An invocation runs repeat 0 untraced, then again under runtime/pprof
// with the benchmark's timing wrappers, and checks that both runs'
// simulated outputs are identical. colo-holmes also runs the spec through
// scenario.Run and checks that the benchmark's layer-by-layer assembly of
// it gives the same outputs. The cluster workloads run once more with a
// telemetry set attached to read the node daemons' and kernels' counters;
// that run is not compared, because the daemon models the cost of
// recording telemetry.
//
// The CPU profile is folded by internal/<module>: each sample goes to the
// innermost frame in the repository's internal packages, so runtime and
// standard-library work is charged to its caller. host_frac is a layer's
// share of all samples. Each layer is listed with the end-to-end metric it
// should move and on which workload:
//
//	layer      metrics                                        moves
//	machine    host_frac, ticks, batched_tick_frac,           sim_speed on colo-holmes
//	           ns_per_tick, slice_ms.p50/p90 (host ms per
//	           100 ms simulated), slice_samples
//	kernel     host_frac, migrations, steals                  sim_speed on colo-holmes
//	core       host_frac (with perf and hpe), invocations,    sim_speed on traffic-day
//	           deallocations, expansions                      and fleet-256
//	kvstore    host_frac, ops, ns_per_op (store wrapper,      sim_speed on colo-holmes
//	           colo-holmes only; counts preload inserts)
//	ycsb,      ycsb.host_frac, lcservice.host_frac,           setup_s on fleet-256;
//	lcservice  lcservice.preload_s (CPU s under                sim_speed on traffic-day
//	           Service.Load), lcservice.queries
//	cluster    host_frac, rounds, lod_skip_frac, placed,      sim_speed on fleet-256
//	           evictions
//	runner     cpu_per_wall: CPU of the parallel node         sim_speed on fleet-256
//	           advance over its wall time, taken as the run's
//	           wall time less the serial work
//	traffic    host_frac, arrivals, retries, amplification,   sim_speed and ok_pct
//	           scale_ups                                      on traffic-day
//	go         gc_frac, alloc_mb, gc_cycles                   peak_rss_mb and sim_speed
//	                                                          on fleet-256
//	trace      overhead_pct: traced against untraced wall     none
//	profile    samples: the profile's sample count            none
//
// A metric a workload does not exercise reads 0: the machine tick and
// store-wrapper figures exist only for colo-holmes, whose machine the
// benchmark builds itself; the cluster and traffic figures only for the
// workloads that run them.
//
// # Workloads
//
// Load is open loop in simulated time on every workload: Poisson arrivals
// at a fixed rate or on a diurnal curve. Each workload is one process on
// at most two threads.
//
// colo-holmes is the paper's own setting: one 16-core SMT server under
// the Holmes daemon (E=40, 100 µs sampling, 4 reserved CPUs) running
// bursty redis on YCSB-a at 10k rps and rocksdb on YCSB-b at 20k rps
// beside a continuous kmeans/sort/pagerank batch stream, 2 s warmup and a
// 15 s measured window. The machine tick loop does most of the host work
// here and the stores and YCSB much of the rest; the daemon is a few
// percent and there is no control plane, so a daemon or cluster change
// should leave it flat.
//
// fleet-256 is the scale experiment's scoring arm: 256 nodes of 8 cores
// with level-of-detail fast-forward, two each of redis, rocksdb, memcached
// and wiredtiger, a 160-pod BestEffort stream, 0.5 s warmup and a 2 s
// window, two node-advance workers. Node boot and store preload are a
// large share of its wall time, and the per-node daemons, YCSB value
// generation and the garbage collector all matter. It is the only
// workload where level of detail and the placer run at fleet scale.
//
// traffic-day is a compressed diurnal day on five nodes: the default
// topology's replicated memcached frontend at 600k users behind deadlines
// (60 ms), three attempts, a 0.1 retry budget, a breaker at 50% and a
// concurrency limit of 128, with a 48-pod backfill, 1 s warmup and a 12 s
// window, two workers. It reaches lcservice and kvstore through the
// open-loop balancer rather than a per-service client, and the autoscaler
// boots replicas mid-run, so their store preload lands in steady state:
// a change that moves work into set-up shows here as a cost. About 6% of
// its requests fail at the flash-crowd peaks, so ok_pct is sensitive.
//
// # Findings
//
// The cluster control plane is under 1% of CPU on every workload (0.1% on
// fleet-256), so no workload here can show an end-to-end gain from a
// registry or placement optimisation; that code is a simplicity target,
// not a speed target. The internal/traffic package itself is at most
// about 1% of traffic-day's CPU: the traffic plane's host cost is the
// serving work it drives (machine, kvstore, ycsb) and its controller in
// internal/cluster, which cluster.host_frac counts, so cluster.host_frac
// is highest on traffic-day rather than on fleet-256.
package main
