// Package cluster is the multi-node control plane over kubelite nodes:
// the paper's §8 future work (cluster-manager integration) lifted from
// one machine to a fleet. Every node is a full simulated machine with a
// kernel, a cgroup filesystem, a Holmes daemon and a kubelite agent; the
// control plane coordinates them in heartbeat rounds —
//
//   - a node registry holds each node's latest telemetry snapshot
//     (per-CPU VPI, reserved-pool size, LC utilization, batch occupancy);
//   - a placement scheduler scores candidate nodes per pod: the
//     VPI-aware policy spreads Guaranteed pods away from interfered
//     nodes and backfills BestEffort pods onto lendable SMT capacity,
//     with plain bin-packing as the baseline;
//   - a reconciler evicts BestEffort pods off nodes whose smoothed VPI
//     stays above threshold, rescheduling them with bounded retries and
//     exponential backoff so draining cannot livelock.
//
// Between rounds the nodes are mutually independent, so the cluster
// advances them on the internal/runner pool; with per-node seeds derived
// via rng.DeriveSeed the run is byte-identical at any parallelism.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"github.com/holmes-colocation/holmes/internal/batch"
	"github.com/holmes-colocation/holmes/internal/faults"
	"github.com/holmes-colocation/holmes/internal/lcservice"
	"github.com/holmes-colocation/holmes/internal/obs"
	"github.com/holmes-colocation/holmes/internal/runner"
	"github.com/holmes-colocation/holmes/internal/stats"
	"github.com/holmes-colocation/holmes/internal/telemetry"
	"github.com/holmes-colocation/holmes/internal/trace"
)

// RunOptions are the execution knobs that are not part of the workload
// description: Workers bounds node-simulation parallelism (<= 1 serial;
// results identical either way) and Telemetry, when non-nil, receives
// every node's daemon metrics plus the control plane's own counters.
type RunOptions struct {
	Workers   int
	Telemetry *telemetry.Set
	// Obs, when non-nil, records the run's observability artifacts: pod
	// lifecycle and node fault spans on the control-plane recorder, each
	// node daemon's decision-chain spans on its per-node recorder, fleet
	// time-series rollups, and the burn-rate alert log. Recording is pure
	// observation — attaching a plane never changes what the run computes
	// (the burn-rate engine itself always runs; it feeds the reconciler).
	Obs *obs.Plane
	// FullRescan forces the control plane onto its naive O(nodes) paths:
	// reference full-rescan placement, unconditional reconcile scans, and
	// full machine fidelity regardless of the spec's LoD setting. The
	// honest baseline for the perfbench scaling scenario and the
	// differential tests — results are identical either way.
	FullRescan bool
}

// maxPlaceRetries bounds how many rounds a pending pod is retried when no
// node fits before it is dropped and counted as a failed placement. Waiting
// for capacity is normal (pods queue while earlier ones drain), so the
// bound is generous; it exists to stop a pod the fleet can never fit from
// circulating forever.
const maxPlaceRetries = 400

// maxBackoffRounds caps the reconciler's exponential requeue backoff.
const maxBackoffRounds = 8

// trendAlpha is the per-round EWMA weight for a node's VPI trend.
const trendAlpha = 0.3

// lodQuietVPI is the VPI-trend ceiling below which an unoccupied,
// unsuspected node counts as quiescent for the level-of-detail policy. A
// node that was recently hot keeps full fidelity until its trend decays
// under this (about nine rounds from the eviction threshold at
// trendAlpha), so the fast-forward path never hides a cooling node.
const lodQuietVPI = 1.0

// pendingPod is one queue entry awaiting placement.
type pendingPod struct {
	req                        PodRequest
	svc                        *ServiceSpec    // non-nil for Guaranteed service pods
	rep                        *trafficReplica // non-nil for replicated-service pods
	kind                       batch.Kind
	containers, threads, units int
	retries                    int // placement attempts that found no node
	evictions                  int // times the reconciler has evicted this pod
	notBefore                  int // earliest round for the next attempt
}

// placedPod tracks a running BestEffort pod for the reconciler.
type placedPod struct {
	pending *pendingPod
	node    int
	seq     int // placement sequence, for youngest-first eviction
}

// ServiceResult is one Guaranteed service's measured outcome.
type ServiceResult struct {
	Name     string
	Store    string
	Workload string
	Node     int
	Queries  int64
	Summary  stats.Summary
	// SLOViolations is the fraction of measured queries over the SLO.
	SLOViolations float64
	// Lost marks a service whose node died and that never found a new
	// home by run end; it contributes no latency numbers.
	Lost bool
}

// Result is a cluster run's outcome.
type Result struct {
	Spec     Spec
	Rounds   int
	Services []ServiceResult
	// MeanP99/WorstP99 aggregate the services' p99 latency (ns).
	MeanP99  float64
	WorstP99 float64
	// SLOViolationRatio is the query-weighted violation fraction.
	SLOViolationRatio float64
	// ClusterUtil is the mean node-wide busy fraction over the window.
	ClusterUtil float64
	// BatchCompleted counts finite BestEffort pods finished in-window.
	BatchCompleted int
	// PeakSmoothedVPI is the highest per-node VPI trend the registry held
	// during the measured window (reconciler diagnostics).
	PeakSmoothedVPI float64
	// Control-plane statistics (whole run, including warmup).
	PlacedBatch      int
	Evictions        int
	Requeues         int
	FailedPlacements int
	PinnedPods       int
	// Batch pod-stream conservation accounting (whole run): every admitted
	// pod is, at run end, completed, still running, still queued, or
	// dropped — BatchArrived == BatchDoneTotal + BatchRunning + BatchQueued
	// + BatchFailed. Unlike BatchCompleted, BatchDoneTotal counts warmup
	// completions too.
	BatchArrived   int
	BatchDoneTotal int
	BatchRunning   int
	BatchQueued    int
	BatchFailed    int
	// LoDSkips counts node-rounds the level-of-detail policy
	// fast-forwarded instead of simulating (0 under LoD "full").
	LoDSkips int
	// Fault and degradation statistics (all zero in fault-free runs).
	Crashes            int
	Reboots            int
	HeartbeatsMissed   int
	SlowRounds         int
	NodesDied          int
	NodesRejoined      int
	CheckpointRequeues int
	ServiceFailovers   int
	FencedPods         int
	SafeModeEntries    int64
	RescanRepairs      int64
	// Burn-rate alerting outcome: page/ticket activations plus the full
	// deterministic transition log (identical at any worker count).
	PageAlerts   int
	TicketAlerts int
	Alerts       []obs.Alert
	// Traffic is the open-loop traffic plane's outcome (nil when the spec
	// has no topology).
	Traffic *TrafficResult
}

// TotalQueries returns the completed, measured queries summed over the
// run's non-lost services — the denominator behind SLOViolationRatio. A
// verdict derived from that ratio is only meaningful when this is large
// enough; with zero completed queries the ratio is vacuously 0.
func (r *Result) TotalQueries() int64 {
	var n int64
	for _, s := range r.Services {
		n += s.Queries
	}
	return n
}

// Run executes the cluster described by spec.
func Run(spec Spec, opt RunOptions) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	placer, err := NewPlacer(spec.placer())
	if err != nil {
		return nil, err
	}
	kinds, err := spec.Batch.kinds()
	if err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}

	hbNs := spec.heartbeatNs()
	warmupRounds, measureRounds := spec.rounds()
	totalRounds := warmupRounds + measureRounds

	var tel clusterTelemetry
	tel.resolve(opt.Telemetry)

	// The burn-rate engine always runs: its alert stream modulates the
	// reconciler, so it is control-plane behavior, not optional recording.
	// The tracer and rollup are the recording side and no-op without a
	// plane.
	burn := newBurnEngine(spec, totalRounds)
	tracer := newRunTracer(opt.Obs, hbNs)
	rollup := newFleetRollup(opt.Obs, hbNs)
	// The traffic plane (nil without a topology): arrival processes, the
	// load-balancer tier and the autoscalers, all driven serially from
	// this loop.
	tc, err := newTrafficController(spec, tracer, opt.Obs, hbNs, warmupRounds)
	if err != nil {
		return nil, err
	}
	prevQ := make([]int64, spec.Nodes)
	prevBad := make([]int64, spec.Nodes)

	// The node-fault schedule, fixed up front from per-node seed streams:
	// what happens to node i never depends on fleet size changes above i
	// or on the advance parallelism.
	var schedule [][]faults.RoundFault
	if spec.Chaos != nil && spec.Chaos.Nodes.Enabled() {
		schedule = spec.Chaos.Nodes.Schedule(spec.Seed, spec.Nodes, totalRounds)
	}
	degrade := !spec.DisableDegradation
	var fd *failureDetector
	if degrade {
		fd = newFailureDetector(spec.Nodes,
			float64(spec.suspectRounds()), float64(spec.deadRounds()))
	}
	down := make([]bool, spec.Nodes)    // crashed, simulation frozen
	rebootAt := make([]int, spec.Nodes) // round the node comes back (-1: never)
	gen := make([]int, spec.Nodes)      // boot generation per node slot

	// Boot the fleet. Nodes are independent, so boot fans out on the
	// worker pool; each node's seed derives from (spec.Seed, node ID).
	nodes := make([]*Node, spec.Nodes)
	boots := make([]func() error, spec.Nodes)
	for i := range nodes {
		i := i
		boots[i] = func() error {
			n, err := bootNode(spec, i, 0, opt.Telemetry, opt.Obs.NodeRecorder(i))
			if err != nil {
				return err
			}
			nodes[i] = n
			return nil
		}
	}
	if err := runner.Run(workers, boots); err != nil {
		return nil, err
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.Stop()
			}
		}
	}()

	// The registry: one state per node, refreshed each round. All
	// mutations go through reg so its shard aggregates stay exact; states
	// aliases the backing slice for the read-only passes (rollups,
	// traffic reconciliation, reference full-rescan placement).
	reg := newRegistry(spec.Nodes, defaultShardSize)
	states := reg.States()
	for i := range states {
		reg.Reset(i, NodeState{ID: i, HB: nodes[i].Heartbeat()})
	}

	// Level-of-detail: with LoD "auto" (and no node-fault schedule), a
	// node that is unoccupied, not hot, not suspect and VPI-quiet skips
	// both its machine advance and its heartbeat this round. Its registry
	// entry freezes, the failure detector is told the silence is policy,
	// and the skipped simulated time accrues as lag that is paid back —
	// on the cheap idle fast-forward path — only if placement later
	// targets the node. Lag never needs settling at run end: a node that
	// stayed quiescent to the finish contributes exactly what it would
	// have simulated — zero busy time, zero queries, zero completions.
	lodAuto := spec.lodAuto() && !opt.FullRescan
	var lagNs []int64
	var lodSkip []bool
	if lodAuto {
		lagNs = make([]int64, spec.Nodes)
		lodSkip = make([]bool, spec.Nodes)
	}
	catchUp := func(i int) {
		if lodAuto && lagNs[i] > 0 {
			nodes[i].Advance(lagNs[i])
			lagNs[i] = 0
		}
	}

	// Pending queue: services first (placed in round 0), then the batch
	// stream's arrivals.
	var queue []*pendingPod
	for i := range spec.Services {
		ss := spec.Services[i]
		queue = append(queue, &pendingPod{
			req: PodRequest{Name: ss.Name, Guaranteed: true, Threads: lcservice.DefaultConfigFor(ss.Store).Threads()},
			svc: &ss,
		})
		tracer.admit(ss.Name, 0)
	}
	for _, p := range tc.initialPods() {
		queue = append(queue, p)
		tracer.admit(p.req.Name, 0)
	}
	containers, threads, units := spec.Batch.podSpecShape()
	arrived := 0
	res := &Result{Spec: spec}
	serviceNode := map[string]int{}
	placed := map[string]*placedPod{}
	placeSeq := 0

	// nodeLost reschedules everything the control plane had booked on a
	// node it now considers gone: BestEffort pods resume elsewhere from
	// their last heartbeat checkpoint, services fail over to a fresh
	// instance. Only called with degradation enabled.
	nodeLost := func(i, r int) {
		var names []string
		for name, pp := range placed {
			if pp.node == i {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			pp := placed[name]
			delete(placed, name)
			tracer.requeue(name, r, "node-lost")
			p := pp.pending
			done := 0
			for _, prog := range states[i].HB.Progress {
				if prog.Name == name {
					done = prog.Units
				}
			}
			// Work since the last heartbeat is lost — that is the price of
			// checkpointing at heartbeat granularity.
			threadsPer := p.containers * p.threads
			remaining := threadsPer*p.units - done
			p.units = (remaining + threadsPer - 1) / threadsPer
			if p.units < 1 {
				p.units = 1
			}
			p.notBefore = r + 1
			p.retries = 0
			queue = append(queue, p)
			res.CheckpointRequeues++
		}
		var svcs []string
		for name, idx := range serviceNode {
			if idx == i {
				svcs = append(svcs, name)
			}
		}
		sort.Strings(svcs)
		for _, name := range svcs {
			delete(serviceNode, name)
			tracer.requeue(name, r, "failover")
			for si := range spec.Services {
				if spec.Services[si].Name != name {
					continue
				}
				ss := spec.Services[si]
				queue = append(queue, &pendingPod{
					req: PodRequest{Name: ss.Name, Guaranteed: true,
						Threads: lcservice.DefaultConfigFor(ss.Store).Threads()},
					svc:       &ss,
					notBefore: r + 1,
				})
			}
			res.ServiceFailovers++
		}
		// Replicas on the lost node: their in-flight requests are gone
		// (accounted as lost), and the traffic plane queues replacements
		// up to each service's minimum.
		for _, p := range tc.nodeLost(i, r) {
			p.notBefore = r + 1
			queue = append(queue, p)
			tracer.admit(p.req.Name, r)
		}
	}

	for r := 0; r < totalRounds; r++ {
		// Reboots due this round, then freshly scheduled crashes.
		for i := range nodes {
			if !down[i] || rebootAt[i] != r {
				continue
			}
			// Harvest the dead incarnation's degradation counters before
			// it is replaced, then boot a fresh machine under a
			// generation-salted seed.
			st := nodes[i].DaemonStats()
			res.SafeModeEntries += st.SafeModeEntries
			res.RescanRepairs += st.RescanRepairs
			gen[i]++
			nn, err := bootNode(spec, i, gen[i], opt.Telemetry, opt.Obs.NodeRecorder(i))
			if err != nil {
				return nil, err
			}
			nodes[i] = nn
			down[i] = false
			rebootAt[i] = -1
			res.Reboots++
			tracer.nodeReboot(i, r)
			// The fresh incarnation's SLI counters restart from zero.
			prevQ[i], prevBad[i] = 0, 0
			if degrade {
				// Everything booked on the old incarnation is gone:
				// reschedule from checkpoints, fail services over.
				nodeLost(i, r)
				fd.reset(i)
			}
			if states[i].Dead {
				res.NodesRejoined++
			}
			reg.Reset(i, NodeState{ID: i, HB: nn.Heartbeat()})
		}
		if schedule != nil {
			for i := range nodes {
				f := schedule[i][r]
				if !f.Crash || down[i] {
					continue
				}
				if spec.Chaos.Nodes.SpareServiceNodes && len(nodes[i].services) > 0 {
					continue
				}
				down[i] = true
				res.Crashes++
				tracer.nodeCrash(i, r)
				if f.DownRounds > 0 {
					rebootAt[i] = r + f.DownRounds
				} else {
					rebootAt[i] = -1
				}
			}
		}

		if r == warmupRounds {
			for i, n := range nodes {
				if !down[i] {
					n.BeginMeasurement()
				}
			}
		}

		// Batch arrivals for this round (PodsPerRound <= 0: all at once).
		perRound := spec.Batch.PodsPerRound
		if perRound <= 0 {
			perRound = spec.Batch.Pods
		}
		for a := 0; a < perRound && arrived < spec.Batch.Pods; a++ {
			name := fmt.Sprintf("batch-%03d", arrived)
			queue = append(queue, &pendingPod{
				req:        PodRequest{Name: name, Threads: containers * threads},
				kind:       kinds[arrived%len(kinds)],
				containers: containers,
				threads:    threads,
				units:      units,
			})
			tracer.admit(name, r)
			arrived++
		}

		// Placement pass, in queue order against the current registry.
		// Decisions route through the sharded fast path unless FullRescan
		// pins the reference scan; both answer identically.
		place := func(req PodRequest) int {
			if !opt.FullRescan {
				if rp, ok := placer.(registryPlacer); ok {
					return rp.PlaceReg(reg, req)
				}
			}
			return placer.Place(states, req)
		}
		couldFit := func(req PodRequest) bool {
			if !opt.FullRescan {
				return reg.AnyNodeCouldFit(req)
			}
			return anyNodeCouldFit(states, req)
		}
		var waiting []*pendingPod
		for _, p := range queue {
			if p.notBefore > r {
				waiting = append(waiting, p)
				continue
			}
			target := place(p.req)
			if target < 0 {
				if (p.svc != nil || p.rep != nil) && !couldFit(p.req) {
					return nil, fmt.Errorf("cluster: no node fits service %s", p.req.Name)
				}
				p.retries++
				if p.retries > maxPlaceRetries {
					if p.svc != nil {
						return nil, fmt.Errorf("cluster: service %s unplaced after %d rounds",
							p.req.Name, maxPlaceRetries)
					}
					if p.rep != nil {
						tc.placementFailed(p)
					} else {
						res.BatchFailed++
					}
					res.FailedPlacements++
					tel.inc(tel.failed)
					continue
				}
				p.notBefore = r + 1
				waiting = append(waiting, p)
				continue
			}
			// A fast-forwarded target first pays back its skipped rounds so
			// the pod lands on a machine aligned with fleet time.
			catchUp(target)
			if p.rep != nil {
				if err := tc.place(p, target, nodes[target]); err != nil {
					return nil, err
				}
				reg.Update(target, func(st *NodeState) {
					st.HB.ServicePods++
					st.HB.ServiceThreads += p.req.Threads
				})
				tel.inc(tel.placedGuaranteed)
				tracer.servicePlace(p.req.Name, r, target)
			} else if p.svc != nil {
				if err := nodes[target].PlaceService(*p.svc); err != nil {
					return nil, err
				}
				serviceNode[p.svc.Name] = target
				reg.Update(target, func(st *NodeState) {
					st.HB.ServicePods++
					st.HB.ServiceThreads += p.req.Threads
				})
				tel.inc(tel.placedGuaranteed)
				tracer.servicePlace(p.svc.Name, r, target)
			} else {
				if err := nodes[target].PlaceBatch(p.req.Name, p.kind, p.containers, p.threads, p.units); err != nil {
					return nil, err
				}
				res.PlacedBatch++
				placed[p.req.Name] = &placedPod{pending: p, node: target, seq: placeSeq}
				placeSeq++
				reg.Update(target, func(st *NodeState) {
					st.HB.BatchPods++
					st.HB.BatchThreads += p.req.Threads
				})
				tel.inc(tel.placedBestEffort)
				tracer.place(p.req.Name, r, target)
			}
		}
		queue = waiting

		// Open-loop arrivals for this round, routed through the balancer
		// tier. Runs after placement (fresh replicas serve immediately) and
		// before the advance, so every request lands inside the round.
		tc.inject(r)

		// Decide fidelity for the round, after placement so fresh targets
		// count as occupied. The check reads only the registry entry and
		// the node's pod census, both serial state: the skip set is
		// deterministic at any worker count.
		if lodAuto {
			for i := range nodes {
				lodSkip[i] = false
				if down[i] {
					continue
				}
				st := &states[i]
				if !st.Dead && !st.Suspect && st.Hot == 0 &&
					st.TrendVPI < lodQuietVPI && !nodes[i].Occupied() {
					lodSkip[i] = true
					lagNs[i] += hbNs
					res.LoDSkips++
				}
			}
		}

		// Advance every live node one heartbeat period, fanned out on the
		// worker pool. Nodes share nothing mid-round, so the outcome is
		// identical at any worker count. Crashed nodes are frozen; slow
		// nodes make proportionally less simulated progress (straggler
		// semantics without breaking the lockstep rounds); fast-forwarded
		// nodes bank the round as lag instead of simulating it.
		var tasks []func() error
		for i := range nodes {
			if down[i] || (lodAuto && lodSkip[i]) {
				continue
			}
			n := nodes[i]
			dur := hbNs
			if schedule != nil {
				if f := schedule[i][r]; f.Slow > 1 {
					dur = int64(float64(hbNs) / f.Slow)
					res.SlowRounds++
				}
			}
			tasks = append(tasks, func() error { n.Advance(dur); return nil })
		}
		if err := runner.Run(workers, tasks); err != nil {
			return nil, err
		}

		// Reap finished pods, then refresh the registry from heartbeats.
		// Fast-forwarded nodes are unoccupied by construction — nothing to
		// reap, and no heartbeat to deliver below.
		for i, n := range nodes {
			if down[i] || (lodAuto && lodSkip[i]) {
				continue
			}
			done, err := n.ReapFinished()
			if err != nil {
				return nil, err
			}
			for _, name := range done {
				delete(placed, name)
				res.BatchDoneTotal++
				if r >= warmupRounds {
					res.BatchCompleted++
				}
				tel.inc(tel.completed)
				tracer.complete(name, r)
			}
		}
		var roundGoodQ, roundBadQ int64
		for i, n := range nodes {
			hbLost := schedule != nil && schedule[i][r].LoseHeartbeat
			if down[i] || hbLost {
				// No heartbeat this round: the registry keeps its stale
				// entry and the failure detector accrues suspicion.
				if !down[i] {
					res.HeartbeatsMissed++
				}
				if degrade {
					fd.observe(i, false)
					died := false
					reg.Update(i, func(st *NodeState) {
						st.MissedHB++
						if !st.Dead {
							st.Suspect = fd.suspect(i)
							if fd.dead(i) {
								st.Dead = true
								st.Suspect = true
								died = true
							}
						}
					})
					if died {
						res.NodesDied++
						nodeLost(i, r)
					}
				}
				continue
			}
			if lodAuto && lodSkip[i] {
				// Fast-forwarded: the silence is the control plane's own
				// policy, so the failure detector treats it as a delivered
				// heartbeat and the registry entry stays frozen.
				if degrade {
					fd.observe(i, true)
				}
				continue
			}
			if degrade && states[i].Dead {
				// A node declared dead is talking again — a false positive
				// (the schedule lost its heartbeats, the node kept going).
				// Its pods were already re-placed elsewhere; fence the
				// zombies before readmitting it to the registry.
				keep := map[string]bool{}
				for name, pp := range placed {
					if pp.node == i {
						keep[name] = true
					}
				}
				fenced, err := n.Fence(keep, func(svc string) bool {
					idx, ok := serviceNode[svc]
					return (ok && idx == i) || tc.keepsReplica(svc, i)
				})
				if err != nil {
					return nil, err
				}
				res.FencedPods += fenced
				res.NodesRejoined++
				fd.reset(i)
				reg.Reset(i, NodeState{ID: i})
			}
			if degrade {
				fd.observe(i, true)
			}
			hb := n.Heartbeat()
			// Latency SLI deltas for the burn-rate engine. The cumulative
			// counters restart on measurement reset and reboot, so deltas
			// clamp at zero rather than going negative.
			dq, db := hb.Queries-prevQ[i], hb.SLOBad-prevBad[i]
			if dq < 0 {
				dq = 0
			}
			if db < 0 {
				db = 0
			}
			if db > dq {
				db = dq
			}
			prevQ[i], prevBad[i] = hb.Queries, hb.SLOBad
			roundGoodQ += dq - db
			roundBadQ += db
			// Trend smooths the heartbeat VPI one more time at the round
			// scale: a single bursty heartbeat cannot arm the reconciler,
			// only a node that keeps reporting interference.
			reg.Update(i, func(st *NodeState) {
				if degrade {
					st.MissedHB = 0
					st.Suspect = false
				}
				st.TrendVPI += trendAlpha * (hb.SmoothedVPI - st.TrendVPI)
				if st.TrendVPI >= spec.evictVPI() {
					st.Hot++
				} else {
					st.Hot = 0
				}
				st.HB = hb
			})
			tel.gaugeVPI(i, hb.SmoothedVPI)
			if r >= warmupRounds && states[i].TrendVPI > res.PeakSmoothedVPI {
				res.PeakSmoothedVPI = states[i].TrendVPI
			}
		}

		// Feed the fleet SLO engine: latency from the query deltas,
		// availability from node-rounds lost to crashes or death verdicts.
		// Both SLIs are deterministic functions of the round's state, so
		// the alert stream is identical at any worker count.
		roundNs := int64(r) * hbNs
		var nodesBad int64
		for i := range nodes {
			if down[i] || states[i].Dead {
				nodesBad++
			}
		}
		transitions := burn.Observe("latency", r, roundNs, roundGoodQ, roundBadQ)
		transitions = append(transitions,
			burn.Observe("availability", r, roundNs, int64(spec.Nodes)-nodesBad, nodesBad)...)

		// Traffic-plane reconciliation: balancer health and queue estimates,
		// drained-replica retirement, the resilience round step, the
		// autoscaler decisions. Scale-ups enter the placement queue for
		// next round; requests-SLO transitions publish with the round's
		// other alerts.
		pods, reqAlerts := tc.postRound(r, nodes, states, down, burn)
		transitions = append(transitions, reqAlerts...)
		publishAlerts(opt.Telemetry, opt.Obs, transitions)
		rollup.record(r, states, down, roundGoodQ, roundBadQ)
		for _, p := range pods {
			p.notBefore = r + 1
			queue = append(queue, p)
			tracer.admit(p.req.Name, r)
		}

		// Reconcile: drain one BestEffort pod per persistently hot node.
		// While a page-severity alert is active the fleet is burning error
		// budget too fast for patience: the hot-streak requirement drops
		// to a single round so interfered nodes drain immediately.
		hot := spec.hotRounds()
		if burn.Paging() && hot > 1 {
			hot = 1
		}
		// The registry's incremental hot count gives the reconciler an O(1)
		// early-out: no hot node anywhere, nothing to scan or sort. (The
		// naive baseline scans unconditionally, like the pre-sharded loop.)
		if !opt.FullRescan && reg.HotNodes() == 0 {
			continue
		}
		for _, ev := range reconcileDecisions(states, placed, hot, spec.maxEvictions()) {
			if down[ev.node] || states[ev.node].Dead {
				// The eviction RPC cannot reach the node; the detector (or
				// a reboot) will deal with its pods.
				continue
			}
			pp := placed[ev.pod]
			if !nodes[ev.node].HasBatch(ev.pod) {
				// Stale booking: the node rebooted under the control
				// plane's feet (degradation off) and the pod is gone.
				delete(placed, ev.pod)
				continue
			}
			done := nodes[ev.node].BatchUnitsDone(ev.pod)
			if err := nodes[ev.node].EvictBatch(ev.pod); err != nil {
				return nil, err
			}
			tracer.evict(ev.pod, r, ev.node, states[ev.node].Hot, states[ev.node].TrendVPI)
			// Re-arm: the node must stay hot for another full streak before
			// its next eviction, so draining is paced, not a stampede.
			reg.Update(ev.node, func(st *NodeState) { st.Hot = 0 })
			delete(placed, ev.pod)
			res.Evictions++
			tel.inc(tel.evictions)
			p := pp.pending
			// Checkpoint: the pod resumes from the work it already finished,
			// so an eviction costs rescheduling latency, not lost cycles.
			threads := p.containers * p.threads
			remaining := threads*p.units - done
			p.units = (remaining + threads - 1) / threads
			if p.units < 1 {
				p.units = 1
			}
			p.evictions++
			p.notBefore = r + 1 + requeueBackoff(p.evictions)
			p.retries = 0
			queue = append(queue, p)
			res.Requeues++
			tel.inc(tel.requeues)
		}
	}

	// Collect. Service order follows the spec for stable rendering.
	res.Rounds = totalRounds
	windowNs := int64(measureRounds) * hbNs
	slo := spec.sloNs()
	var violations, queries float64
	measuredServices := 0
	for _, ss := range spec.Services {
		idx, booked := serviceNode[ss.Name]
		var s *nodeService
		if booked {
			s = nodes[idx].services[ss.Name]
		}
		if s == nil {
			// The service's node died and no failover landed before the
			// run ended: worst-case outcome, reported as lost.
			res.Services = append(res.Services, ServiceResult{
				Name:     ss.Name,
				Store:    ss.Store,
				Workload: defaultStr(ss.Workload, "a"),
				Node:     -1,
				Lost:     true,
			})
			continue
		}
		lat := s.svc.Latencies()
		sr := ServiceResult{
			Name:          ss.Name,
			Store:         ss.Store,
			Workload:      defaultStr(ss.Workload, "a"),
			Node:          idx,
			Queries:       lat.Count(),
			Summary:       lat.Summarize(),
			SLOViolations: lat.FractionAbove(slo),
		}
		res.Services = append(res.Services, sr)
		measuredServices++
		res.MeanP99 += sr.Summary.P99
		if sr.Summary.P99 > res.WorstP99 {
			res.WorstP99 = sr.Summary.P99
		}
		violations += sr.SLOViolations * float64(sr.Queries)
		queries += float64(sr.Queries)
	}
	if measuredServices > 0 {
		res.MeanP99 /= float64(measuredServices)
	}
	if queries > 0 {
		res.SLOViolationRatio = violations / queries
	}
	for _, n := range nodes {
		res.ClusterUtil += n.Utilization(windowNs)
	}
	res.ClusterUtil /= float64(len(nodes))
	for _, pp := range placed {
		if pp.pending.evictions >= spec.maxEvictions() {
			res.PinnedPods++
		}
	}
	// Conservation accounting: where every admitted batch pod ended up.
	res.BatchArrived = arrived
	res.BatchRunning = len(placed)
	for _, p := range queue {
		if p.svc == nil && p.rep == nil {
			res.BatchQueued++
		}
	}
	// Fleet-wide degradation counters from the surviving incarnations
	// (crashed-and-replaced ones were harvested at reboot).
	for _, n := range nodes {
		st := n.DaemonStats()
		res.SafeModeEntries += st.SafeModeEntries
		res.RescanRepairs += st.RescanRepairs
	}
	res.PageAlerts = burn.Pages()
	res.TicketAlerts = burn.Tickets()
	res.Alerts = burn.Alerts()
	tc.collect(res, nodes, down)
	return res, nil
}

// anyNodeCouldFit reports whether the request would fit some live node if
// that node were empty — distinguishing "can never be placed" (a spec
// error) from "no capacity right now" (retry next round). Dead nodes
// don't count: a fleet whose only capacity-capable nodes are permanently
// dead can never place the pod, and must surface that instead of retrying
// forever.
func anyNodeCouldFit(states []NodeState, req PodRequest) bool {
	for _, st := range states {
		if !st.Dead && req.Threads <= st.HB.CapacityThreads {
			return true
		}
	}
	return false
}

// requeueBackoff is how many rounds an evicted pod waits before its next
// placement attempt: exponential in its eviction count, capped so a
// pinning-bound pod cannot be delayed unboundedly. Eviction counts below
// one take the minimum backoff — shifting by a negative amount panics.
func requeueBackoff(evictions int) int {
	if evictions < 1 {
		return 1
	}
	b := 1 << (evictions - 1)
	if b > maxBackoffRounds {
		b = maxBackoffRounds
	}
	return b
}

// eviction is one reconciler decision.
type eviction struct {
	node int
	pod  string
}

// reconcileDecisions returns the pods to evict this round: for every node
// hot for at least hotRounds consecutive heartbeats, the youngest
// still-evictable BestEffort pod (least sunk work). Pods already evicted
// maxEvictions times are pinned and never chosen again, which — together
// with the requeue backoff — bounds the reschedule churn.
func reconcileDecisions(states []NodeState, placed map[string]*placedPod, hotRounds, maxEvictions int) []eviction {
	byNode := map[int]*placedPod{}
	names := make([]string, 0, len(placed))
	for name := range placed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pp := placed[name]
		if pp.pending.evictions >= maxEvictions {
			continue
		}
		if cur := byNode[pp.node]; cur == nil || pp.seq > cur.seq {
			byNode[pp.node] = pp
		}
	}
	var evs []eviction
	for _, st := range states {
		if st.Hot < hotRounds {
			continue
		}
		if pp := byNode[st.ID]; pp != nil {
			evs = append(evs, eviction{node: st.ID, pod: pendingName(pp)})
		}
	}
	return evs
}

func pendingName(pp *placedPod) string { return pp.pending.req.Name }

// clusterTelemetry pre-resolves the control plane's metric handles.
type clusterTelemetry struct {
	set              *telemetry.Set
	placedGuaranteed *telemetry.Counter
	placedBestEffort *telemetry.Counter
	evictions        *telemetry.Counter
	requeues         *telemetry.Counter
	failed           *telemetry.Counter
	completed        *telemetry.Counter
	nodeVPI          map[int]*telemetry.Gauge
}

func (t *clusterTelemetry) resolve(set *telemetry.Set) {
	if set == nil {
		return
	}
	t.set = set
	reg := set.Registry
	t.placedGuaranteed = reg.Counter("cluster_pods_placed_total",
		"pods placed by the cluster scheduler", telemetry.L("qos", "guaranteed"))
	t.placedBestEffort = reg.Counter("cluster_pods_placed_total",
		"pods placed by the cluster scheduler", telemetry.L("qos", "besteffort"))
	t.evictions = reg.Counter("cluster_evictions_total",
		"best-effort pods evicted by the reconciler")
	t.requeues = reg.Counter("cluster_requeues_total",
		"evicted pods returned to the pending queue")
	t.failed = reg.Counter("cluster_failed_placements_total",
		"pods dropped after exhausting placement retries")
	t.completed = reg.Counter("cluster_pods_completed_total",
		"finite best-effort pods that drained their work")
	t.nodeVPI = map[int]*telemetry.Gauge{}
}

func (t *clusterTelemetry) inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

func (t *clusterTelemetry) gaugeVPI(node int, v float64) {
	if t.set == nil {
		return
	}
	g, ok := t.nodeVPI[node]
	if !ok {
		g = t.set.Registry.Gauge("cluster_node_smoothed_vpi",
			"mean smoothed VPI across a node's reserved CPUs",
			telemetry.L("node", fmt.Sprint(node)))
		t.nodeVPI[node] = g
	}
	g.Set(v)
}

// Render prints the run as a table plus summary lines.
func (r *Result) Render() string {
	var b strings.Builder
	title := r.Spec.Name
	if title == "" {
		title = "cluster"
	}
	tb := trace.NewTable(fmt.Sprintf("%s: %d nodes x %d cores, %s placement, %d rounds",
		title, r.Spec.Nodes, r.Spec.CoresPerNode, r.Spec.placer(), r.Rounds),
		"service", "workload", "node", "queries", "mean us", "p99 us", "SLO viol")
	for _, s := range r.Services {
		if s.Lost {
			tb.AddRow(s.Name, "workload-"+s.Workload, "lost", 0, "-", "-", "-")
			continue
		}
		if !s.Summary.Valid {
			// A live service that measured nothing (every request lost to
			// faults) has no latency distribution; printing the zero-valued
			// Summary would read as perfect latency and 0% violations.
			tb.AddRow(s.Name, "workload-"+s.Workload, s.Node, 0, "n/a", "n/a", "n/a")
			continue
		}
		tb.AddRow(s.Name, "workload-"+s.Workload, s.Node, s.Queries,
			fmt.Sprintf("%.1f", s.Summary.Mean/1e3),
			fmt.Sprintf("%.1f", s.Summary.P99/1e3),
			fmt.Sprintf("%.2f%%", 100*s.SLOViolations))
	}
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\ncluster utilization: %.1f%%   batch pods completed: %d (placed %d)\n",
		100*r.ClusterUtil, r.BatchCompleted, r.PlacedBatch)
	fmt.Fprintf(&b, "reconciler: %d evictions, %d requeues, %d failed placements, %d pinned pods (peak node VPI %.1f)\n",
		r.Evictions, r.Requeues, r.FailedPlacements, r.PinnedPods, r.PeakSmoothedVPI)
	if r.Spec.LoD != "" {
		fmt.Fprintf(&b, "fidelity: lod=%s, %d node-rounds fast-forwarded of %d\n",
			r.Spec.LoD, r.LoDSkips, r.Rounds*r.Spec.Nodes)
	}
	if r.Traffic != nil {
		r.Traffic.render(&b)
	}
	fmt.Fprintf(&b, "alerts: %d page, %d ticket burn-rate activations\n",
		r.PageAlerts, r.TicketAlerts)
	for _, a := range r.Alerts {
		if a.Severity == "page" {
			fmt.Fprintf(&b, "  %s\n", a.String())
		}
	}
	if r.Spec.Chaos != nil {
		fmt.Fprintf(&b, "chaos: %d crashes (%d reboots), %d heartbeats lost, %d slow rounds; detector: %d declared dead, %d rejoined\n",
			r.Crashes, r.Reboots, r.HeartbeatsMissed, r.SlowRounds, r.NodesDied, r.NodesRejoined)
		fmt.Fprintf(&b, "recovery: %d checkpoint requeues, %d service failovers, %d fenced pods; safe-mode entries %d, rescan repairs %d\n",
			r.CheckpointRequeues, r.ServiceFailovers, r.FencedPods, r.SafeModeEntries, r.RescanRepairs)
	}
	return b.String()
}
