package cluster

import (
	"testing"

	"github.com/holmes-colocation/holmes/internal/faults"
	"github.com/holmes-colocation/holmes/internal/scenario"
)

// topologySpec is testSpec plus a small replicated-service topology, so
// batch pods share the fleet with closed-loop services and replicas.
func topologySpec() Spec {
	s := testSpec()
	topo := scenario.DefaultTopology(60_000, s.WarmupSeconds+s.DurationSeconds)
	s.Topology = &topo
	return s
}

// runRounds drives a fresh engine round by round, calling check after
// each one.
func runRounds(t *testing.T, spec Spec, check func(r int, e *engine)) *engine {
	t.Helper()
	e, err := newEngine(spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.stop)
	for r := 0; r < e.totalRounds; r++ {
		if err := e.round(r); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		check(r, e)
	}
	return e
}

// TestPodStreamConservedEveryRound checks the batch pod-stream
// conservation identity after every round, not only in the final Result:
// each admitted pod is completed, running, queued or dropped — no round
// loses or duplicates one, through placement, eviction, crashes, detector
// verdicts and checkpoint requeues.
func TestPodStreamConservedEveryRound(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"plain", testSpec()},
		{"chaos", chaosSpec()},
		{"topology", topologySpec()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := runRounds(t, tc.spec, func(r int, e *engine) {
				queued := 0
				for _, p := range e.queue {
					if p.svc == nil && p.rep == nil {
						queued++
					}
				}
				done, running, failed := e.res.BatchDoneTotal, len(e.placed), e.res.BatchFailed
				if e.arrived != done+running+queued+failed {
					t.Fatalf("round %d: %d arrived != %d done + %d running + %d queued + %d failed",
						r, e.arrived, done, running, queued, failed)
				}
			})
			if e.arrived != tc.spec.Batch.Pods || e.res.BatchDoneTotal == 0 {
				t.Fatalf("%d of %d pods arrived, %d completed: the stream never exercised the identity",
					e.arrived, tc.spec.Batch.Pods, e.res.BatchDoneTotal)
			}
		})
	}
}

// TestNodeDownForWindowMeasuresNothing crashes the batch-only node for
// good before the measured window opens (round 2) and in the very round
// it opens (round 4: crashes precede the window in a round). Either way
// the node did no work in the window, so its utilization is exactly zero
// and the cluster figure is the other two nodes' mean over three.
func TestNodeDownForWindowMeasuresNothing(t *testing.T) {
	for _, crashRound := range []int{2, 4} {
		spec := testSpec()
		spec.DurationSeconds = 1.2
		spec.Chaos = &faults.Spec{Nodes: faults.NodeSpec{
			Crashes: []faults.NodeCrash{{Node: 2, Round: crashRound}},
		}}
		e := runRounds(t, spec, func(int, *engine) {})
		if e.warmupRounds != 4 || !e.slots[2].down {
			t.Fatalf("crash at %d: warmup %d rounds, node 2 down %v", crashRound, e.warmupRounds, e.slots[2].down)
		}
		windowNs := int64(e.totalRounds-e.warmupRounds) * e.hbNs
		if u := e.nodes[2].Utilization(windowNs); u != 0 {
			t.Errorf("crash at %d: node 2 down all window reports utilization %.4f", crashRound, u)
		}
		want := (e.nodes[0].Utilization(windowNs) + e.nodes[1].Utilization(windowNs)) / 3
		if got := e.collect().ClusterUtil; got != want {
			t.Errorf("crash at %d: ClusterUtil %.4f, want %.4f", crashRound, got, want)
		}
	}
}
