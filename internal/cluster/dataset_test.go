package cluster

import (
	"testing"

	"github.com/holmes-colocation/holmes/internal/runner"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// TestReplicasShareDataset boots a replicated service's initial replicas
// on separate nodes through the control plane's placement path and checks
// that they hold one dataset, not a copy each: a key read from two
// replicas' stores is the same buffer. The nodes then serve traffic on
// parallel workers, so under -race the shared read path is exercised
// exactly as in a run.
func TestReplicasShareDataset(t *testing.T) {
	spec := trafficSpec(60_000)
	hbNs := spec.heartbeatNs()
	tc, err := newTrafficController(spec, newRunTracer(nil, hbNs), nil, hbNs, 0)
	if err != nil {
		t.Fatal(err)
	}
	pods := tc.initialPods()
	if len(pods) < 2 {
		t.Fatalf("topology boots %d replicas, want at least 2", len(pods))
	}
	nodes := make([]*Node, len(pods))
	for i, p := range pods {
		n, err := bootNode(spec, i, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		if err := tc.place(p, i, n); err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	records := tc.services[0].spec.Records()
	for _, key := range []int64{0, records / 2, records - 1} {
		a := pods[0].rep.ns.svc.Store().Read(ycsb.Key(key)).Value
		b := pods[1].rep.ns.svc.Store().Read(ycsb.Key(key)).Value
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("record %d missing from a replica", key)
		}
		if &a[0] != &b[0] {
			t.Fatalf("record %d: replicas hold separate copies of the dataset", key)
		}
	}

	ts := tc.services[0]
	for _, p := range pods {
		for j := int64(0); j < 200; j++ {
			p.rep.Submit(ts.gen.Next(), j*10_000, 0)
		}
	}
	advance := make([]func() error, len(nodes))
	for i, n := range nodes {
		n := n
		advance[i] = func() error { n.Advance(hbNs); return nil }
	}
	if err := runner.Run(len(nodes), advance); err != nil {
		t.Fatal(err)
	}
	for _, p := range pods {
		if p.rep.doneByA[0] == 0 {
			t.Fatalf("replica %s completed no requests", p.rep.name)
		}
	}
}
