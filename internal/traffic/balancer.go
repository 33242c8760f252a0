package traffic

import (
	"sort"

	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// Replica is the balancer's view of one service instance: somewhere a
// request can be submitted for execution at a simulated time. attempt is
// the request's 0-based try number, threaded through so the control
// plane can attribute failures to the retry generation that suffered
// them.
type Replica interface {
	Submit(op ycsb.Op, atNs int64, attempt int)
}

// Balancer is the load-balancer tier for one replicated service.
//
// Policy: weighted least queue. Each arrival routes to the routable
// (healthy, non-draining) replica with the smallest estimated
// outstanding-request count, ties broken by lowest replica index so the
// choice is deterministic. Outstanding counts are the balancer's own
// bookkeeping — incremented on dispatch, reconciled against each
// replica's completion counter once per control-plane round — which
// models a real L7 balancer tracking in-flight requests per backend.
// Least-queue was chosen over consistent hashing because replicas hold
// full (not sharded) datasets, so any replica can serve any key and the
// balancer's job is purely queue equalization; regional key skew lives
// in OpGen instead.
//
// Admission: a replica at the queue cap is not routable; when every
// replica is at the cap (or none is healthy) the arrival is dropped and
// counted, so arrivals = dispatched + dropped always holds. Drops keep
// their reason: a zero-replica window (nothing routable at all) is
// operationally different from capacity exhaustion (replicas present but
// every admission window full), and a breaker fast-fail is a client-side
// decision before routing was even attempted.
type Balancer struct {
	queueCap int64
	replicas []*replicaSlot
	byName   map[string]*replicaSlot

	arrivals       int64
	drops          int64
	dropUnroutable int64
	dropCapacity   int64
	dropBreaker    int64
}

type replicaSlot struct {
	name        string
	rep         Replica
	outstanding int64
	healthy     bool
	draining    bool
}

// NewBalancer creates a balancer with the given per-replica queue cap.
func NewBalancer(queueCap int) *Balancer {
	return &Balancer{queueCap: int64(queueCap), byName: map[string]*replicaSlot{}}
}

// Add registers a replica; it becomes routable immediately.
func (b *Balancer) Add(name string, r Replica) {
	s := &replicaSlot{name: name, rep: r, healthy: true}
	b.replicas = append(b.replicas, s)
	b.byName[name] = s
}

// Remove deregisters a replica, returning its outstanding estimate (the
// in-flight requests the caller must account as lost or drained).
func (b *Balancer) Remove(name string) int64 {
	s := b.byName[name]
	if s == nil {
		return 0
	}
	delete(b.byName, name)
	for i, r := range b.replicas {
		if r == s {
			b.replicas = append(b.replicas[:i], b.replicas[i+1:]...)
			break
		}
	}
	return s.outstanding
}

// SetHealthy marks a replica (un)routable — the balancer's health check,
// fed from the control plane's failure-detector view each round.
func (b *Balancer) SetHealthy(name string, ok bool) {
	if s := b.byName[name]; s != nil {
		s.healthy = ok
	}
}

// SetDraining stops routing to a replica without removing it: the
// scale-down path, where in-flight requests still complete.
func (b *Balancer) SetDraining(name string, v bool) {
	if s := b.byName[name]; s != nil {
		s.draining = v
	}
}

// SetOutstanding reconciles a replica's queue estimate against ground
// truth (submitted - completed), called once per round per replica.
func (b *Balancer) SetOutstanding(name string, n int64) {
	if s := b.byName[name]; s != nil {
		s.outstanding = n
	}
}

// TotalOutstanding sums the queue estimates over all replicas.
func (b *Balancer) TotalOutstanding() int64 {
	var n int64
	for _, s := range b.replicas {
		n += s.outstanding
	}
	return n
}

// Routable counts replicas currently accepting traffic.
func (b *Balancer) Routable() int {
	n := 0
	for _, s := range b.replicas {
		if s.healthy && !s.draining {
			n++
		}
	}
	return n
}

// Names returns the registered replica names in sorted order.
func (b *Balancer) Names() []string {
	names := make([]string, 0, len(b.replicas))
	for _, s := range b.replicas {
		names = append(names, s.name)
	}
	sort.Strings(names)
	return names
}

// Dispatch routes one arrival: the least-loaded routable replica below
// the queue cap receives the request at atNs with its attempt number.
// Returns the chosen replica name, or ok=false when the arrival was
// dropped at admission — an unroutable drop when no healthy
// non-draining replica exists (a zero-replica window), a capacity drop
// when routable replicas exist but all sit at the queue cap.
func (b *Balancer) Dispatch(op ycsb.Op, atNs int64, attempt int) (string, bool) {
	b.arrivals++
	routable := false
	var best *replicaSlot
	for _, s := range b.replicas {
		if !s.healthy || s.draining {
			continue
		}
		routable = true
		if s.outstanding >= b.queueCap {
			continue
		}
		if best == nil || s.outstanding < best.outstanding {
			best = s
		}
	}
	if best == nil {
		b.drops++
		if routable {
			b.dropCapacity++
		} else {
			b.dropUnroutable++
		}
		return "", false
	}
	best.outstanding++
	best.rep.Submit(op, atNs, attempt)
	return best.name, true
}

// RejectBreaker accounts one presentation fast-failed by the service's
// open circuit breaker: it arrived at the client stack and was dropped
// before routing, so it still enters the conservation identity as an
// arrival and a drop.
func (b *Balancer) RejectBreaker() {
	b.arrivals++
	b.drops++
	b.dropBreaker++
}

// Arrivals and Drops are the balancer's cumulative admission counters.
func (b *Balancer) Arrivals() int64 { return b.arrivals }
func (b *Balancer) Drops() int64    { return b.drops }

// Drop-reason split: unroutable (zero-replica window), capacity (every
// routable replica at the queue cap) and breaker (client-side
// fast-fail). They sum to Drops.
func (b *Balancer) DropsUnroutable() int64 { return b.dropUnroutable }
func (b *Balancer) DropsCapacity() int64   { return b.dropCapacity }
func (b *Balancer) DropsBreaker() int64    { return b.dropBreaker }
