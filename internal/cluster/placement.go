package cluster

import "fmt"

// NodeState is the control plane's registry entry for one node: the
// latest heartbeat plus the reconciler's hot-streak counter. Placers see
// only this — never the node itself — so a placement decision is a pure
// function of the registry, which is what makes one decision benchmarkable
// and the whole control plane deterministic.
type NodeState struct {
	ID int
	HB Heartbeat
	// TrendVPI is the round-scale EWMA of the node's heartbeat SmoothedVPI
	// — the control plane's view of sustained interference.
	TrendVPI float64
	// Hot counts consecutive heartbeats with TrendVPI >= the eviction
	// threshold (reset to zero by the first quiet heartbeat).
	Hot int
	// MissedHB counts consecutive rounds without a delivered heartbeat.
	MissedHB int
	// Suspect is the failure detector's soft verdict: the node has missed
	// enough heartbeats that placement avoids it when anything else fits.
	Suspect bool
	// Dead is the hard verdict: the node's pods have been rescheduled and
	// no placement may target it until it rejoins. Always false when
	// degradation is disabled — the control plane then schedules blind.
	Dead bool
}

// PodRequest is one placement decision's input.
type PodRequest struct {
	Name string
	// Guaranteed requests hold a service; BestEffort requests batch work.
	Guaranteed bool
	// Threads is the pod's declared thread count (capacity accounting).
	Threads int
}

// Placer chooses a node for a pod from the registry snapshot, returning
// the node ID or -1 when nothing fits. Implementations must be
// deterministic: equal inputs, equal choice. Place is the reference full
// rescan; PlaceReg is the sharded fast path, answering the same decision
// from the Registry's per-shard bounds and candidate orders instead of
// rescanning the fleet. PlaceReg must return exactly what Place would on
// Registry.States() — the differential tests pin this across chaos
// schedules and shard sizes.
type Placer interface {
	Name() string
	Place(states []NodeState, req PodRequest) int
	PlaceReg(g *Registry, req PodRequest) int
}

// NewPlacer returns the named policy.
func NewPlacer(name string) (Placer, error) {
	switch name {
	case PlacerVPI:
		return VPIAware{}, nil
	case PlacerBinPack:
		return BinPack{}, nil
	case PlacerScore:
		return ScoringPlacer{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown placer %q", name)
}

// fits is the shared capacity rule: a pod fits while the node's declared
// threads stay within its logical-CPU count. Threads time-share beyond
// that, but admitting past it just builds runqueues. Nodes the failure
// detector declared dead never fit.
func fits(st NodeState, req PodRequest) bool {
	return !st.Dead && st.HB.UsedThreads()+req.Threads <= st.HB.CapacityThreads
}

// BinPack is the baseline: first-fit by node ID on thread capacity,
// blind to interference. It concentrates both services and batch pods on
// the lowest-numbered nodes — exactly what a count-based scheduler does.
type BinPack struct{}

// Name implements Placer.
func (BinPack) Name() string { return PlacerBinPack }

// Place implements Placer.
func (BinPack) Place(states []NodeState, req PodRequest) int {
	for _, st := range states {
		if fits(st, req) {
			return st.ID
		}
	}
	return -1
}

// PlaceReg implements Placer: first fit by node ID, skipping
// whole shards whose max free capacity cannot hold the request.
func (BinPack) PlaceReg(g *Registry, req PodRequest) int {
	for si := range g.shards {
		sh := &g.shards[si]
		sh.ensureAgg(g.states)
		if sh.maxFree < req.Threads {
			continue
		}
		for i := sh.lo; i < sh.hi; i++ {
			if fits(g.states[i], req) {
				return i
			}
		}
	}
	return -1
}

// VPIAware is the interference-aware policy. Guaranteed pods spread away
// from interference: lowest smoothed VPI first, then fewest service
// threads, then lowest ID. BestEffort pods backfill lendable capacity:
// most free threads plus granted LC siblings first, skipping nodes the
// reconciler currently considers hot — placing batch where the fleet's
// VPI says SMT cycles are actually available.
type VPIAware struct{}

// Name implements Placer.
func (VPIAware) Name() string { return PlacerVPI }

// vpiKey is VPIAware's ranking key for one candidate (minimized
// lexicographically), plus whether the node sits in the avoid tier.
func vpiKey(st NodeState, guaranteed bool) (a, b float64, avoid bool) {
	// Suspect nodes (missed heartbeats, maybe dying) and hot nodes
	// (the reconciler is draining them) only take new work when
	// nothing healthy fits — placing beats dropping.
	avoid = st.Suspect
	if guaranteed {
		// Minimize sustained interference, then co-resident service
		// load, so services land on distinct quiet nodes.
		a = st.HB.SmoothedVPI
		b = float64(st.HB.ServiceThreads)
	} else {
		// Maximize lendable capacity: free threads plus granted
		// siblings (negated — we minimize throughout).
		free := st.HB.CapacityThreads - st.HB.UsedThreads()
		a = -float64(free + 2*st.HB.Lendable)
		b = st.HB.SmoothedVPI
		avoid = avoid || st.Hot > 0
	}
	return a, b, avoid
}

// vpiBetter reports whether candidate (a, b, id) beats the incumbent.
// The lowest-ID rule is explicit in the key, not an artifact of scan
// order, so shard-merged selection agrees with the full rescan even when
// candidates arrive out of ID order.
func vpiBetter(a, b float64, id int, bestA, bestB float64, bestID int) bool {
	if bestID < 0 {
		return true
	}
	if a != bestA {
		return a < bestA
	}
	if b != bestB {
		return b < bestB
	}
	return id < bestID
}

// Place implements Placer.
func (VPIAware) Place(states []NodeState, req PodRequest) int {
	best, bestAvoid := -1, -1
	var bestA, bestB, avoidA, avoidB float64
	for _, st := range states {
		if !fits(st, req) {
			continue
		}
		a, b, avoid := vpiKey(st, req.Guaranteed)
		if avoid {
			if vpiBetter(a, b, st.ID, avoidA, avoidB, bestAvoid) {
				bestAvoid, avoidA, avoidB = st.ID, a, b
			}
			continue
		}
		if vpiBetter(a, b, st.ID, bestA, bestB, best) {
			best, bestA, bestB = st.ID, a, b
		}
	}
	if best < 0 {
		return bestAvoid
	}
	return best
}

// PlaceReg implements Placer: the same tiered selection, skipping
// whole shards whose max free capacity cannot hold the request.
func (VPIAware) PlaceReg(g *Registry, req PodRequest) int {
	best, bestAvoid := -1, -1
	var bestA, bestB, avoidA, avoidB float64
	for si := range g.shards {
		sh := &g.shards[si]
		sh.ensureAgg(g.states)
		if sh.maxFree < req.Threads {
			continue
		}
		for i := sh.lo; i < sh.hi; i++ {
			st := g.states[i]
			if !fits(st, req) {
				continue
			}
			a, b, avoid := vpiKey(st, req.Guaranteed)
			if avoid {
				if vpiBetter(a, b, st.ID, avoidA, avoidB, bestAvoid) {
					bestAvoid, avoidA, avoidB = st.ID, a, b
				}
				continue
			}
			if vpiBetter(a, b, st.ID, bestA, bestB, best) {
				best, bestA, bestB = st.ID, a, b
			}
		}
	}
	if best < 0 {
		return bestAvoid
	}
	return best
}
