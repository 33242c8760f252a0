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
	e, err := newEngine(spec, opt)
	if err != nil {
		return nil, err
	}
	defer e.stop()
	for r := 0; r < e.totalRounds; r++ {
		if err := e.round(r); err != nil {
			return nil, err
		}
	}
	return e.collect(), nil
}

// nodeSlot is one node's round state; it outlives reboots.
type nodeSlot struct {
	down     bool  // crashed, simulation frozen
	rebootAt int   // round the node comes back (-1: never)
	prevQ    int64 // SLI counters of the last delivered heartbeat
	prevBad  int64
	lodSkip  bool  // fast-forwarded this round (LoD "auto" only)
	lagNs    int64 // simulated time banked while fast-forwarded
}

// engine is one cluster run: the control plane's state plus one method
// per round phase (DESIGN.md §14 lists them in order).
type engine struct {
	spec                      Spec
	opt                       RunOptions
	hbNs                      int64
	warmupRounds, totalRounds int
	placer                    Placer
	kinds                     []batch.Kind
	tel                       clusterTelemetry
	burn                      *obs.BurnEngine
	tracer                    *runTracer
	rollup                    *fleetRollup
	tc                        *trafficController
	schedule                  [][]faults.RoundFault
	degrade, lodAuto          bool
	fd                        *failureDetector
	nodes                     []*Node
	slots                     []nodeSlot
	reg                       *Registry
	states                    []NodeState
	queue                     []*pendingPod
	arrived                   int // batch pods admitted so far
	serviceNode               map[string]int
	placed                    map[string]*placedPod
	placeSeq                  int
	res                       *Result
}

// fullRescan pins a placer to its reference Place: the FullRescan baseline.
type fullRescan struct{ Placer }

func (f fullRescan) PlaceReg(g *Registry, req PodRequest) int { return f.Place(g.States(), req) }

// newEngine boots the fleet and queues round 0's pods.
func newEngine(spec Spec, opt RunOptions) (*engine, error) {
	placer, err := NewPlacer(spec.placer())
	if err != nil {
		return nil, err
	}
	// Placement routes through the sharded fast path unless FullRescan
	// pins the reference scan; both answer identically.
	if opt.FullRescan {
		placer = fullRescan{placer}
	}
	kinds, err := spec.Batch.kinds()
	if err != nil {
		return nil, err
	}
	e := &engine{spec: spec, opt: opt, hbNs: spec.heartbeatNs(),
		placer: placer, kinds: kinds, serviceNode: map[string]int{},
		placed: map[string]*placedPod{}, res: &Result{Spec: spec}}
	warmupRounds, measureRounds := spec.rounds()
	e.warmupRounds, e.totalRounds = warmupRounds, warmupRounds+measureRounds
	e.tel.resolve(opt.Telemetry)

	// The burn-rate engine always runs: its alert stream modulates the
	// reconciler, so it is control-plane behavior, not optional recording.
	// The tracer and rollup are the recording side and no-op without a
	// plane.
	e.burn = newBurnEngine(spec, e.totalRounds)
	e.tracer = newRunTracer(opt.Obs, e.hbNs)
	e.rollup = newFleetRollup(opt.Obs, e.hbNs)
	// The traffic plane (nil without a topology): arrival processes, the
	// load-balancer tier and the autoscalers, all driven serially from
	// the round loop.
	if e.tc, err = newTrafficController(spec, e.tracer, opt.Obs, e.hbNs, e.warmupRounds); err != nil {
		return nil, err
	}

	// The node-fault schedule, fixed up front from per-node seed streams:
	// what happens to node i never depends on fleet size changes above i
	// or on the advance parallelism.
	if spec.Chaos != nil && spec.Chaos.Nodes.Enabled() {
		e.schedule = spec.Chaos.Nodes.Schedule(spec.Seed, spec.Nodes, e.totalRounds)
	}
	e.degrade = !spec.DisableDegradation
	if e.degrade {
		e.fd = newFailureDetector(spec.Nodes,
			float64(spec.suspectRounds()), float64(spec.deadRounds()))
	}
	e.slots = make([]nodeSlot, spec.Nodes)

	// Boot the fleet. Nodes are independent, so boot fans out on the
	// worker pool; each node's seed derives from (spec.Seed, node ID).
	e.nodes = make([]*Node, spec.Nodes)
	boots := make([]func() error, spec.Nodes)
	for i := range boots {
		boots[i] = func() (err error) {
			e.nodes[i], err = bootNode(spec, i, 0, opt.Telemetry, opt.Obs.NodeRecorder(i))
			return err
		}
	}
	if err := runner.Run(e.opt.Workers, boots); err != nil {
		e.stop()
		return nil, err
	}

	// The registry: one state per node, refreshed each round. All
	// mutations go through reg so its shard aggregates stay exact; states
	// aliases the backing slice for the read-only passes (rollups,
	// traffic reconciliation, reference full-rescan placement).
	e.reg = newRegistry(spec.Nodes, defaultShardSize)
	e.states = e.reg.States()
	for i, n := range e.nodes {
		e.reg.Reset(i, NodeState{ID: i, HB: n.Heartbeat()})
	}
	e.lodAuto = spec.lodAuto() && !opt.FullRescan

	// Pending queue: services first (placed in round 0), then the
	// topology's initial replicas; the batch stream arrives per round.
	for _, ss := range spec.Services {
		e.admit(servicePod(ss), 0, 0)
	}
	for _, p := range e.tc.initialPods() {
		e.admit(p, 0, 0)
	}
	return e, nil
}

func (e *engine) stop() {
	for _, n := range e.nodes {
		if n != nil {
			n.Stop()
		}
	}
}

func (e *engine) round(r int) error {
	if err := e.faults(r); err != nil {
		return err
	}
	if r == e.warmupRounds {
		e.beginMeasurement()
	}
	e.arrive(r)
	if err := e.place(r); err != nil {
		return err
	}
	// Open-loop arrivals for this round, routed through the balancer
	// tier. Runs after placement (fresh replicas serve immediately) and
	// before the advance, so every request lands inside the round.
	e.tc.inject(r)
	e.chooseLoD()
	if err := e.advance(r); err != nil {
		return err
	}
	if err := e.reap(r); err != nil {
		return err
	}
	goodQ, badQ, err := e.heartbeats(r)
	if err != nil {
		return err
	}
	e.postRound(r, goodQ, badQ)
	return e.reconcile(r)
}

func servicePod(ss ServiceSpec) *pendingPod {
	return &pendingPod{
		req: PodRequest{Name: ss.Name, Guaranteed: true, Threads: lcservice.DefaultConfigFor(ss.Store).Threads()},
		svc: &ss,
	}
}

// enqueue queues p with a fresh retry budget, due from round notBefore.
func (e *engine) enqueue(p *pendingPod, notBefore int) {
	p.notBefore, p.retries = notBefore, 0
	e.queue = append(e.queue, p)
}

// admit enqueues a pod created in round r and opens its span chain.
func (e *engine) admit(p *pendingPod, r, notBefore int) {
	e.enqueue(p, notBefore)
	e.tracer.admit(p.req.Name, r)
}

// resumeFrom is the checkpoint: p shrinks to the work left after done
// finished units, so a move costs rescheduling latency, not lost cycles.
func (p *pendingPod) resumeFrom(done int) {
	threads := p.containers * p.threads
	remaining := threads*p.units - done
	p.units = max((remaining+threads-1)/threads, 1)
}

// harvest adds one node incarnation's degradation counters to the result.
func (e *engine) harvest(n *Node) {
	st := n.DaemonStats()
	e.res.SafeModeEntries += st.SafeModeEntries
	e.res.RescanRepairs += st.RescanRepairs
}

// faults applies the node-fault schedule: reboots due this round, then
// freshly scheduled crashes.
func (e *engine) faults(r int) error {
	for i := range e.nodes {
		s := &e.slots[i]
		if !s.down || s.rebootAt != r {
			continue
		}
		// Harvest the dead incarnation's degradation counters before it
		// is replaced, then boot a fresh machine under a
		// generation-salted seed.
		e.harvest(e.nodes[i])
		nn, err := bootNode(e.spec, i, e.nodes[i].gen+1, e.opt.Telemetry, e.opt.Obs.NodeRecorder(i))
		if err != nil {
			return err
		}
		e.nodes[i] = nn
		// A fresh incarnation: up, its SLI counters restarting from zero.
		*s = nodeSlot{rebootAt: -1}
		e.res.Reboots++
		e.tracer.nodeReboot(i, r)
		if e.degrade {
			// Everything booked on the old incarnation is gone:
			// reschedule from checkpoints, fail services over.
			e.nodeLost(i, r)
			e.fd.reset(i)
		}
		if e.states[i].Dead {
			e.res.NodesRejoined++
		}
		e.reg.Reset(i, NodeState{ID: i, HB: nn.Heartbeat()})
	}
	if e.schedule == nil {
		return nil
	}
	for i, n := range e.nodes {
		f, s := e.schedule[i][r], &e.slots[i]
		if !f.Crash || s.down {
			continue
		}
		if e.spec.Chaos.Nodes.SpareServiceNodes && len(n.services) > 0 {
			continue
		}
		s.down = true
		e.res.Crashes++
		e.tracer.nodeCrash(i, r)
		if f.DownRounds > 0 {
			s.rebootAt = r + f.DownRounds
		} else {
			s.rebootAt = -1
		}
	}
	return nil
}

// beginMeasurement opens the measured window on every node, crashed ones
// included: a node down for the whole window did no measured work, so
// its warmup must not count either.
func (e *engine) beginMeasurement() {
	for _, n := range e.nodes {
		n.BeginMeasurement()
	}
}

// arrive admits the round's batch pods (PodsPerRound <= 0: all at once).
func (e *engine) arrive(r int) {
	perRound := e.spec.Batch.PodsPerRound
	if perRound <= 0 {
		perRound = e.spec.Batch.Pods
	}
	containers, threads, units := e.spec.Batch.podSpecShape()
	for a := 0; a < perRound && e.arrived < e.spec.Batch.Pods; a++ {
		e.admit(&pendingPod{
			req:        PodRequest{Name: fmt.Sprintf("batch-%03d", e.arrived), Threads: containers * threads},
			kind:       e.kinds[e.arrived%len(e.kinds)],
			containers: containers,
			threads:    threads,
			units:      units,
		}, r, r)
		e.arrived++
	}
}

// place is the placement pass, in queue order against the current
// registry.
func (e *engine) place(r int) error {
	var waiting []*pendingPod
	for _, p := range e.queue {
		if p.notBefore > r {
			waiting = append(waiting, p)
			continue
		}
		if target := e.placer.PlaceReg(e.reg, p.req); target >= 0 {
			if err := e.bind(p, target, r); err != nil {
				return err
			}
			continue
		}
		if (p.svc != nil || p.rep != nil) && !e.couldFit(p.req) {
			return fmt.Errorf("cluster: no node fits service %s", p.req.Name)
		}
		p.retries++
		if p.retries <= maxPlaceRetries {
			p.notBefore = r + 1
			waiting = append(waiting, p)
			continue
		}
		if p.svc != nil {
			return fmt.Errorf("cluster: service %s unplaced after %d rounds",
				p.req.Name, maxPlaceRetries)
		}
		if p.rep != nil {
			e.tc.placementFailed(p)
		} else {
			e.res.BatchFailed++
		}
		e.res.FailedPlacements++
		e.tel.inc(e.tel.failed)
	}
	e.queue = waiting
	return nil
}

func (e *engine) couldFit(req PodRequest) bool {
	if e.opt.FullRescan {
		return anyNodeCouldFit(e.states, req)
	}
	return e.reg.AnyNodeCouldFit(req)
}

// bind launches p on node target and books it in the registry.
func (e *engine) bind(p *pendingPod, target, r int) error {
	// A fast-forwarded target first pays back its skipped rounds so the
	// pod lands on a machine aligned with fleet time.
	n, s := e.nodes[target], &e.slots[target]
	if s.lagNs > 0 {
		n.Advance(s.lagNs)
		s.lagNs = 0
	}
	switch {
	case p.rep != nil:
		if err := e.tc.place(p, target, n); err != nil {
			return err
		}
	case p.svc != nil:
		if err := n.PlaceService(*p.svc); err != nil {
			return err
		}
		e.serviceNode[p.svc.Name] = target
	default:
		if err := n.PlaceBatch(p.req.Name, p.kind, p.containers, p.threads, p.units); err != nil {
			return err
		}
		e.res.PlacedBatch++
		e.placed[p.req.Name] = &placedPod{pending: p, node: target, seq: e.placeSeq}
		e.placeSeq++
		e.reg.Update(target, func(st *NodeState) {
			st.HB.BatchPods++
			st.HB.BatchThreads += p.req.Threads
		})
		e.tel.inc(e.tel.placedBestEffort)
		e.tracer.place(p.req.Name, r, target)
		return nil
	}
	e.reg.Update(target, func(st *NodeState) {
		st.HB.ServicePods++
		st.HB.ServiceThreads += p.req.Threads
	})
	e.tel.inc(e.tel.placedGuaranteed)
	e.tracer.servicePlace(p.req.Name, r, target)
	return nil
}

// chooseLoD decides fidelity for the round, after placement so fresh
// targets count as occupied. The check reads only the registry entry and
// the node's pod census, both serial state: the skip set is deterministic
// at any worker count.
//
// Level-of-detail: with LoD "auto" (and no node-fault schedule), a node
// that is unoccupied, not hot, not suspect and VPI-quiet skips both its
// machine advance and its heartbeat this round. Its registry entry
// freezes, the failure detector is told the silence is policy, and the
// skipped simulated time accrues as lag that is paid back — on the cheap
// idle fast-forward path — only if placement later targets the node. Lag
// never needs settling at run end: a node that stayed quiescent to the
// finish contributes exactly what it would have simulated — zero busy
// time, zero queries, zero completions.
func (e *engine) chooseLoD() {
	if !e.lodAuto {
		return
	}
	for i, n := range e.nodes {
		s, st := &e.slots[i], &e.states[i]
		s.lodSkip = false
		if !s.down && !st.Dead && !st.Suspect && st.Hot == 0 &&
			st.TrendVPI < lodQuietVPI && !n.Occupied() {
			s.lodSkip = true
			s.lagNs += e.hbNs
			e.res.LoDSkips++
		}
	}
}

// advance moves every live node one heartbeat period, fanned out on the
// worker pool. Nodes share nothing mid-round, so the outcome is identical
// at any worker count. Crashed nodes are frozen; slow nodes make
// proportionally less simulated progress (straggler semantics without
// breaking the lockstep rounds); fast-forwarded nodes bank the round as
// lag instead of simulating it.
func (e *engine) advance(r int) error {
	var tasks []func() error
	for i, n := range e.nodes {
		if e.slots[i].down || e.slots[i].lodSkip {
			continue
		}
		dur := e.hbNs
		if e.schedule != nil {
			if f := e.schedule[i][r]; f.Slow > 1 {
				dur = int64(float64(e.hbNs) / f.Slow)
				e.res.SlowRounds++
			}
		}
		tasks = append(tasks, func() error { n.Advance(dur); return nil })
	}
	return runner.Run(e.opt.Workers, tasks)
}

// reap deletes finished batch pods. Fast-forwarded nodes are unoccupied
// by construction — nothing to reap.
func (e *engine) reap(r int) error {
	for i, n := range e.nodes {
		if e.slots[i].down || e.slots[i].lodSkip {
			continue
		}
		done, err := n.ReapFinished()
		if err != nil {
			return err
		}
		for _, name := range done {
			delete(e.placed, name)
			e.res.BatchDoneTotal++
			if r >= e.warmupRounds {
				e.res.BatchCompleted++
			}
			e.tel.inc(e.tel.completed)
			e.tracer.complete(name, r)
		}
	}
	return nil
}

// heartbeats refreshes the registry and the failure detector, returning
// the round's latency SLI: good and bad query deltas.
func (e *engine) heartbeats(r int) (goodQ, badQ int64, err error) {
	for i, n := range e.nodes {
		s := &e.slots[i]
		if s.down || (e.schedule != nil && e.schedule[i][r].LoseHeartbeat) {
			// No heartbeat this round: the registry keeps its stale
			// entry and the failure detector accrues suspicion.
			if !s.down {
				e.res.HeartbeatsMissed++
			}
			if e.degrade {
				e.missHeartbeat(i, r)
			}
			continue
		}
		// (A fast-forwarded node is never dead: LoD skips only live,
		// unsuspected nodes.)
		if e.degrade && e.states[i].Dead {
			if err := e.rejoin(i); err != nil {
				return 0, 0, err
			}
		}
		if e.degrade {
			e.fd.observe(i, true)
		}
		if s.lodSkip {
			// Fast-forwarded: the silence is the control plane's own
			// policy, so the failure detector treats it as a delivered
			// heartbeat and the registry entry stays frozen.
			continue
		}
		hb := n.Heartbeat()
		// Latency SLI deltas for the burn-rate engine.
		good, bad := sliDelta(hb.Queries, hb.SLOBad, &s.prevQ, &s.prevBad)
		goodQ += good
		badQ += bad
		// Trend smooths the heartbeat VPI one more time at the round
		// scale: a single bursty heartbeat cannot arm the reconciler,
		// only a node that keeps reporting interference.
		e.reg.Update(i, func(st *NodeState) {
			if e.degrade {
				st.MissedHB = 0
				st.Suspect = false
			}
			st.TrendVPI += trendAlpha * (hb.SmoothedVPI - st.TrendVPI)
			if st.TrendVPI >= e.spec.evictVPI() {
				st.Hot++
			} else {
				st.Hot = 0
			}
			st.HB = hb
		})
		e.tel.gaugeVPI(i, hb.SmoothedVPI)
		if r >= e.warmupRounds && e.states[i].TrendVPI > e.res.PeakSmoothedVPI {
			e.res.PeakSmoothedVPI = e.states[i].TrendVPI
		}
	}
	return goodQ, badQ, nil
}

// missHeartbeat feeds a silent round to the failure detector and
// reschedules the node's pods once it declares the node dead.
func (e *engine) missHeartbeat(i, r int) {
	e.fd.observe(i, false)
	died := false
	e.reg.Update(i, func(st *NodeState) {
		st.MissedHB++
		if !st.Dead {
			st.Suspect = e.fd.suspect(i)
			if e.fd.dead(i) {
				st.Dead = true
				st.Suspect = true
				died = true
			}
		}
	})
	if died {
		e.res.NodesDied++
		e.nodeLost(i, r)
	}
}

// rejoin readmits a node declared dead that is talking again — a false
// positive (the schedule lost its heartbeats, the node kept going). Its
// pods were already re-placed elsewhere; fence the zombies before
// readmitting it to the registry.
func (e *engine) rejoin(i int) error {
	keep := map[string]bool{}
	for name, pp := range e.placed {
		if pp.node == i {
			keep[name] = true
		}
	}
	fenced, err := e.nodes[i].Fence(keep, func(svc string) bool {
		idx, ok := e.serviceNode[svc]
		return (ok && idx == i) || e.tc.keepsReplica(svc, i)
	})
	if err != nil {
		return err
	}
	e.res.FencedPods += fenced
	e.res.NodesRejoined++
	e.fd.reset(i)
	e.reg.Reset(i, NodeState{ID: i})
	return nil
}

// postRound feeds the fleet SLO engine: latency from the query deltas,
// availability from node-rounds lost to crashes or death verdicts. Both
// SLIs are deterministic functions of the round's state, so the alert
// stream is identical at any worker count.
func (e *engine) postRound(r int, goodQ, badQ int64) {
	roundNs := int64(r) * e.hbNs
	var nodesBad int64
	for i := range e.nodes {
		if e.slots[i].down || e.states[i].Dead {
			nodesBad++
		}
	}
	transitions := e.burn.Observe("latency", r, roundNs, goodQ, badQ)
	transitions = append(transitions,
		e.burn.Observe("availability", r, roundNs, int64(e.spec.Nodes)-nodesBad, nodesBad)...)

	// Traffic-plane reconciliation: balancer health and queue estimates,
	// drained-replica retirement, the resilience round step, the
	// autoscaler decisions. Scale-ups enter the placement queue for
	// next round; requests-SLO transitions publish with the round's
	// other alerts.
	pods, reqAlerts := e.tc.postRound(r, e.nodes, e.states, e.slots, e.burn)
	transitions = append(transitions, reqAlerts...)
	publishAlerts(e.opt.Telemetry, e.opt.Obs, transitions)
	e.rollup.record(r, e.states, e.slots, goodQ, badQ)
	for _, p := range pods {
		e.admit(p, r, r+1)
	}
}

// reconcile drains one BestEffort pod per persistently hot node. While a
// page-severity alert is active the fleet is burning error budget too
// fast for patience: the hot-streak requirement drops to a single round
// so interfered nodes drain immediately.
func (e *engine) reconcile(r int) error {
	hot := e.spec.hotRounds()
	if e.burn.Paging() && hot > 1 {
		hot = 1
	}
	// The registry's incremental hot count gives the reconciler an O(1)
	// early-out: no hot node anywhere, nothing to scan or sort. (The
	// naive baseline scans unconditionally, like the pre-sharded loop.)
	if !e.opt.FullRescan && e.reg.HotNodes() == 0 {
		return nil
	}
	for _, ev := range reconcileDecisions(e.states, e.placed, hot, e.spec.maxEvictions()) {
		if e.slots[ev.node].down || e.states[ev.node].Dead {
			// The eviction RPC cannot reach the node; the detector (or
			// a reboot) will deal with its pods.
			continue
		}
		n, pp := e.nodes[ev.node], e.placed[ev.pod]
		if !n.HasBatch(ev.pod) {
			// Stale booking: the node rebooted under the control
			// plane's feet (degradation off) and the pod is gone.
			delete(e.placed, ev.pod)
			continue
		}
		done := n.BatchUnitsDone(ev.pod)
		if err := n.EvictBatch(ev.pod); err != nil {
			return err
		}
		e.tracer.evict(ev.pod, r, ev.node, e.states[ev.node].Hot, e.states[ev.node].TrendVPI)
		// Re-arm: the node must stay hot for another full streak before
		// its next eviction, so draining is paced, not a stampede.
		e.reg.Update(ev.node, func(st *NodeState) { st.Hot = 0 })
		delete(e.placed, ev.pod)
		e.res.Evictions++
		e.tel.inc(e.tel.evictions)
		// Checkpoint: the pod resumes from the work it already finished.
		p := pp.pending
		p.resumeFrom(done)
		p.evictions++
		e.enqueue(p, r+1+requeueBackoff(p.evictions))
		e.res.Requeues++
		e.tel.inc(e.tel.requeues)
	}
	return nil
}

// nodeLost reschedules everything the control plane had booked on a node
// it now considers gone: BestEffort pods resume elsewhere from their last
// heartbeat checkpoint, services fail over to a fresh instance. Only
// called with degradation enabled.
func (e *engine) nodeLost(i, r int) {
	for _, name := range sortedNames(e.placed, func(pp *placedPod) bool { return pp.node == i }) {
		p := e.placed[name].pending
		delete(e.placed, name)
		e.tracer.requeue(name, r, "node-lost")
		// Work since the last heartbeat is lost — that is the price of
		// checkpointing at heartbeat granularity.
		done := 0
		for _, prog := range e.states[i].HB.Progress {
			if prog.Name == name {
				done = prog.Units
			}
		}
		p.resumeFrom(done)
		e.enqueue(p, r+1)
		e.res.CheckpointRequeues++
	}
	for _, name := range sortedNames(e.serviceNode, func(idx int) bool { return idx == i }) {
		delete(e.serviceNode, name)
		e.tracer.requeue(name, r, "failover")
		for _, ss := range e.spec.Services {
			if ss.Name == name {
				e.enqueue(servicePod(ss), r+1)
			}
		}
		e.res.ServiceFailovers++
	}
	// Replicas on the lost node: their in-flight requests are gone
	// (accounted as lost), and the traffic plane queues replacements
	// up to each service's minimum.
	for _, p := range e.tc.nodeLost(i, r) {
		e.admit(p, r, r+1)
	}
}

// collect assembles the result. Service order follows the spec for
// stable rendering.
func (e *engine) collect() *Result {
	res := e.res
	res.Rounds = e.totalRounds
	windowNs := int64(e.totalRounds-e.warmupRounds) * e.hbNs
	slo := e.spec.sloNs()
	var violations, queries float64
	measuredServices := 0
	for _, ss := range e.spec.Services {
		sr := ServiceResult{Name: ss.Name, Store: ss.Store, Workload: orDefault(ss.Workload, "a"), Node: -1}
		idx, booked := e.serviceNode[ss.Name]
		var s *nodeService
		if booked {
			s = e.nodes[idx].services[ss.Name]
		}
		if s == nil {
			// The service's node died and no failover landed before the
			// run ended: worst-case outcome, reported as lost.
			sr.Lost = true
			res.Services = append(res.Services, sr)
			continue
		}
		lat := s.svc.Latencies()
		sr.Node = idx
		sr.Queries = lat.Count()
		sr.Summary = lat.Summarize()
		sr.SLOViolations = lat.FractionAbove(slo)
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
	for _, n := range e.nodes {
		res.ClusterUtil += n.Utilization(windowNs)
	}
	res.ClusterUtil /= float64(len(e.nodes))
	for _, pp := range e.placed {
		if pp.pending.evictions >= e.spec.maxEvictions() {
			res.PinnedPods++
		}
	}
	// Conservation accounting: where every admitted batch pod ended up.
	res.BatchArrived = e.arrived
	res.BatchRunning = len(e.placed)
	for _, p := range e.queue {
		if p.svc == nil && p.rep == nil {
			res.BatchQueued++
		}
	}
	// Fleet-wide degradation counters from the surviving incarnations
	// (crashed-and-replaced ones were harvested at reboot).
	for _, n := range e.nodes {
		e.harvest(n)
	}
	res.PageAlerts = e.burn.Pages()
	res.TicketAlerts = e.burn.Tickets()
	res.Alerts = e.burn.Alerts()
	e.tc.collect(res, e.nodes, e.slots)
	return res
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
	for _, name := range sortedNames(placed, nil) {
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
			evs = append(evs, eviction{node: st.ID, pod: pp.pending.req.Name})
		}
	}
	return evs
}

// sortedNames returns the keys of m whose value passes keep (every key
// when keep is nil), sorted: the control plane never iterates a map in
// its random order.
func sortedNames[V any](m map[string]V, keep func(V) bool) []string {
	names := make([]string, 0, len(m))
	for name, v := range m {
		if keep == nil || keep(v) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// sliDelta returns the good and bad query deltas of the cumulative
// counters q and bad (queries over the SLO) since *prevQ and *prevBad,
// and advances those. The counters restart on measurement reset and
// reboot, so deltas clamp at zero rather than going negative.
func sliDelta(q, bad int64, prevQ, prevBad *int64) (goodD, badD int64) {
	dq, db := max(q-*prevQ, 0), max(bad-*prevBad, 0)
	db = min(db, dq)
	*prevQ, *prevBad = q, bad
	return dq - db, db
}

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
