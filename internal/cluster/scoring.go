package cluster

// Scoring-based placement, after the Alibaba large-scale-cluster line of
// work: instead of gating candidates on a single VPI threshold, predict
// each node's post-placement interference from its heartbeat counters and
// take the best predicted score. The prediction is deliberately
// request-independent *given the QoS class*: the pod's thread demand is
// enforced by the fit gate, not folded into the score, so a node's rank
// within its QoS class is a pure function of its registry entry. That is
// what lets the sharded registry keep per-shard candidate orders sorted
// once per mutation and reuse them for every request — and what makes the
// shard-merge decision provably identical to a full rescan.

// Scoring weights. The score is "predicted post-placement interference":
// lower is better, and every term is an observable the heartbeat already
// carries. Hot/suspect penalties are additive cliffs large enough to
// dominate any counter-derived term, preserving the soft-avoid semantics
// (such nodes still take work when nothing healthy fits).
const (
	// Guaranteed pods spread away from interference and co-resident
	// service load: occupancy and service threads both predict pressure
	// on the new service's reserved cores.
	scoreGOccupancy = 40.0
	scoreGSvcThread = 2.0
	// BestEffort pods backfill: occupancy still predicts contention, but
	// granted lendable siblings are *negative* interference — the daemon
	// has measured those SMT siblings quiet — and co-resident service
	// threads mildly predict future reclaims.
	scoreBOccupancy = 30.0
	scoreBLendable  = 8.0
	scoreBSvcThread = 0.5
	// Cliff penalties: a hot node is being drained by the reconciler, a
	// suspect node is missing heartbeats and may be dying.
	scoreHotPenalty     = 1e4
	scoreSuspectPenalty = 1e6
)

// nodeScore predicts node st's post-placement interference for a pod of
// the given QoS class. Lower is better. Request-independent per class by
// construction (see the package comment above).
func nodeScore(st NodeState, guaranteed bool) float64 {
	cap := st.HB.CapacityThreads
	if cap < 1 {
		cap = 1
	}
	occ := float64(st.HB.UsedThreads()) / float64(cap)
	s := st.TrendVPI
	if guaranteed {
		s += scoreGOccupancy*occ + scoreGSvcThread*float64(st.HB.ServiceThreads)
	} else {
		s += scoreBOccupancy*occ +
			scoreBSvcThread*float64(st.HB.ServiceThreads) -
			scoreBLendable*float64(st.HB.Lendable)
	}
	if st.Hot > 0 {
		s += scoreHotPenalty
	}
	if st.Suspect {
		s += scoreSuspectPenalty
	}
	return s
}

// ScoringPlacer places by best predicted post-placement interference
// score over the fitting candidates, lowest node ID breaking exact ties.
type ScoringPlacer struct{}

// Name implements Placer.
func (ScoringPlacer) Name() string { return PlacerScore }

// Place implements Placer: the full-rescan reference — minimize
// (nodeScore, ID) over all fitting nodes.
func (ScoringPlacer) Place(states []NodeState, req PodRequest) int {
	best := -1
	var bestScore float64
	for _, st := range states {
		if !fits(st, req) {
			continue
		}
		s := nodeScore(st, req.Guaranteed)
		if best < 0 || s < bestScore || (s == bestScore && st.ID < best) {
			best, bestScore = st.ID, s
		}
	}
	return best
}

// PlaceReg implements Placer: the same decision answered from the
// sharded registry. Shards whose max free capacity cannot fit the request
// are skipped on their O(1) bound; in the rest, the pre-sorted candidate
// order for the request's QoS class is walked until the first fitting
// node — which, because the order is ascending (score, ID) and the score
// is request-independent per class, is exactly that shard's best
// candidate. The global winner is the best shard winner.
func (ScoringPlacer) PlaceReg(g *Registry, req PodRequest) int {
	best := -1
	var bestScore float64
	for si := range g.shards {
		sh := &g.shards[si]
		sh.ensureAgg(g.states)
		if sh.maxFree < req.Threads {
			continue
		}
		sh.ensureOrders(g.states)
		order := sh.bOrder
		if req.Guaranteed {
			order = sh.gOrder
		}
		for _, id := range order {
			st := g.states[id]
			if !fits(st, req) {
				continue
			}
			s := nodeScore(st, req.Guaranteed)
			if best < 0 || s < bestScore || (s == bestScore && id < best) {
				best, bestScore = id, s
			}
			break // first fitting node in order is the shard's best
		}
	}
	return best
}
