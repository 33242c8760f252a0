package cluster

import (
	"math"
	"strings"
	"testing"
)

// testSpec is a small fleet that still exercises every control-plane
// path: two services to spread, a batch stream to backfill and reap.
func testSpec() Spec {
	s := DefaultSpec()
	s.Nodes = 3
	s.CoresPerNode = 4
	s.Services = s.Services[:2]
	s.WarmupSeconds = 0.2
	s.DurationSeconds = 0.6
	s.Batch = BatchStream{Pods: 6, PodsPerRound: 2, Containers: 2,
		ThreadsPerContainer: 1, WorkUnitsPerThread: 120}
	return s
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	spec := testSpec()
	r1, err := Run(spec, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(spec, RunOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Render() != r8.Render() {
		t.Fatalf("output differs between Workers 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			r1.Render(), r8.Render())
	}
}

func TestRunPlacesAndCompletes(t *testing.T) {
	spec := testSpec()
	res, err := Run(spec, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Services) != 2 {
		t.Fatalf("got %d service results, want 2", len(res.Services))
	}
	for _, s := range res.Services {
		if s.Queries == 0 {
			t.Errorf("service %s measured no queries", s.Name)
		}
		if s.Summary.P99 <= 0 {
			t.Errorf("service %s has no p99", s.Name)
		}
	}
	if res.PlacedBatch == 0 {
		t.Error("no batch pods placed")
	}
	if res.BatchCompleted == 0 {
		t.Error("no batch pods completed")
	}
	if res.ClusterUtil <= 0 || res.ClusterUtil > 1 {
		t.Errorf("cluster utilization %.3f out of (0,1]", res.ClusterUtil)
	}
	out := res.Render()
	for _, want := range []string{"cluster utilization", "reconciler", "vpi placement"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestNodeHeartbeat(t *testing.T) {
	spec := testSpec()
	n, err := bootNode(spec, 0, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.PlaceService(spec.Services[0]); err != nil {
		t.Fatal(err)
	}
	if err := n.PlaceBatch("b0", 0, 2, 1, 50); err != nil {
		t.Fatal(err)
	}
	n.Advance(50_000_000)
	hb := n.Heartbeat()
	if hb.CapacityThreads != 2*spec.CoresPerNode {
		t.Errorf("capacity %d, want %d", hb.CapacityThreads, 2*spec.CoresPerNode)
	}
	if hb.ServicePods != 1 || hb.ServiceThreads == 0 {
		t.Errorf("service occupancy %d pods / %d threads", hb.ServicePods, hb.ServiceThreads)
	}
	if hb.BatchPods != 1 || hb.BatchThreads != 2 {
		t.Errorf("batch occupancy %d pods / %d threads", hb.BatchPods, hb.BatchThreads)
	}
	if hb.Reserved != spec.reservedCPUs() {
		t.Errorf("reserved %d, want %d", hb.Reserved, spec.reservedCPUs())
	}
	if len(hb.CPUVPI) != hb.CapacityThreads {
		t.Errorf("CPUVPI has %d entries, want %d", len(hb.CPUVPI), hb.CapacityThreads)
	}
}

// states builds a registry where node i has the given used service/batch
// threads; capacity is 16 threads each.
func mkStates(used ...[2]int) []NodeState {
	sts := make([]NodeState, len(used))
	for i, u := range used {
		sts[i] = NodeState{ID: i, HB: Heartbeat{
			Node: i, ServiceThreads: u[0], BatchThreads: u[1], CapacityThreads: 16,
		}}
	}
	return sts
}

func TestBinPackFirstFit(t *testing.T) {
	sts := mkStates([2]int{16, 0}, [2]int{6, 0}, [2]int{0, 0})
	got := (BinPack{}).Place(sts, PodRequest{Threads: 8})
	if got != 1 {
		t.Fatalf("binpack chose node %d, want 1 (first with room)", got)
	}
	if got := (BinPack{}).Place(sts, PodRequest{Threads: 17}); got != -1 {
		t.Fatalf("binpack placed an unfittable pod on node %d", got)
	}
}

func TestVPIAwareSpreadsGuaranteed(t *testing.T) {
	sts := mkStates([2]int{6, 0}, [2]int{0, 0}, [2]int{6, 0})
	sts[0].HB.SmoothedVPI = 10
	sts[1].HB.SmoothedVPI = 30
	sts[2].HB.SmoothedVPI = 5
	got := (VPIAware{}).Place(sts, PodRequest{Guaranteed: true, Threads: 4})
	if got != 2 {
		t.Fatalf("guaranteed pod placed on node %d, want 2 (lowest VPI)", got)
	}
	// Equal VPI: fewest service threads breaks the tie.
	sts[2].HB.SmoothedVPI = 10
	sts[1].HB.SmoothedVPI = 10
	got = (VPIAware{}).Place(sts, PodRequest{Guaranteed: true, Threads: 4})
	if got != 1 {
		t.Fatalf("guaranteed pod placed on node %d, want 1 (fewest service threads)", got)
	}
}

func TestVPIAwareBackfillsLendable(t *testing.T) {
	sts := mkStates([2]int{8, 0}, [2]int{8, 0}, [2]int{12, 0})
	sts[0].HB.Lendable = 0
	sts[1].HB.Lendable = 3 // same free threads, more grantable siblings
	got := (VPIAware{}).Place(sts, PodRequest{Threads: 4})
	if got != 1 {
		t.Fatalf("besteffort pod placed on node %d, want 1 (most lendable)", got)
	}
}

func TestVPIAwareAvoidsHotNodesUnlessOnlyFit(t *testing.T) {
	sts := mkStates([2]int{0, 0}, [2]int{8, 0})
	sts[0].Hot = 2
	got := (VPIAware{}).Place(sts, PodRequest{Threads: 4})
	if got != 1 {
		t.Fatalf("besteffort pod placed on node %d, want 1 (node 0 is hot)", got)
	}
	// When only hot nodes fit, placing still beats dropping.
	sts[1].HB.ServiceThreads = 16
	got = (VPIAware{}).Place(sts, PodRequest{Threads: 4})
	if got != 0 {
		t.Fatalf("besteffort pod placed on node %d, want 0 (only fit)", got)
	}
	// Hot nodes never take Guaranteed skips — VPI score decides.
	sts[0].HB.SmoothedVPI = 50
	sts[1].HB.ServiceThreads = 8
	sts[1].HB.SmoothedVPI = 10
	got = (VPIAware{}).Place(sts, PodRequest{Guaranteed: true, Threads: 4})
	if got != 1 {
		t.Fatalf("guaranteed pod placed on node %d, want 1", got)
	}
}

func placedFor(node int, seq int, evictions int) *placedPod {
	return &placedPod{
		pending: &pendingPod{req: PodRequest{Name: ""}, evictions: evictions},
		node:    node,
		seq:     seq,
	}
}

func TestReconcileDecisions(t *testing.T) {
	sts := mkStates([2]int{0, 0}, [2]int{0, 0}, [2]int{0, 0})
	sts[0].Hot = 2
	sts[2].Hot = 1 // below hotRounds: untouched
	placed := map[string]*placedPod{
		"a": placedFor(0, 1, 0),
		"b": placedFor(0, 5, 0), // youngest on the hot node
		"c": placedFor(2, 9, 0),
	}
	placed["a"].pending.req.Name = "a"
	placed["b"].pending.req.Name = "b"
	placed["c"].pending.req.Name = "c"
	evs := reconcileDecisions(sts, placed, 2, 2)
	if len(evs) != 1 || evs[0].node != 0 || evs[0].pod != "b" {
		t.Fatalf("decisions %+v, want [{node 0 pod b}]", evs)
	}
	// A pinned pod (evictions exhausted) is never chosen again.
	placed["b"].pending.evictions = 2
	evs = reconcileDecisions(sts, placed, 2, 2)
	if len(evs) != 1 || evs[0].pod != "a" {
		t.Fatalf("decisions %+v, want pod a after b is pinned", evs)
	}
	placed["a"].pending.evictions = 2
	if evs = reconcileDecisions(sts, placed, 2, 2); len(evs) != 0 {
		t.Fatalf("decisions %+v, want none with all pods pinned", evs)
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"nodes", func(s *Spec) { s.Nodes = 0 }, "nodes 0 out of range"},
		{"nodes high", func(s *Spec) { s.Nodes = 1025 }, "nodes 1025 out of range"},
		{"lod", func(s *Spec) { s.LoD = "adaptive" }, `unknown lod "adaptive"`},
		{"cores", func(s *Spec) { s.CoresPerNode = 100 }, "cores_per_node 100 out of range"},
		{"reserved", func(s *Spec) { s.ReservedCPUs = 9 }, "reserved CPUs exceed"},
		{"placer", func(s *Spec) { s.Placer = "random" }, `unknown placer "random"`},
		{"duration", func(s *Spec) { s.DurationSeconds = -1 }, "duration_seconds must be positive"},
		{"warmup", func(s *Spec) { s.WarmupSeconds = -1 }, "warmup_seconds must not be negative"},
		{"warmup overflow", func(s *Spec) { s.WarmupSeconds = 1e300 }, "must not exceed"},
		{"duration overflow", func(s *Spec) { s.DurationSeconds = 1e10 }, "must not exceed"},
		{"duration NaN", func(s *Spec) { s.DurationSeconds = math.NaN() }, "must not exceed"},
		{"heartbeat overflow", func(s *Spec) { s.HeartbeatMs = 9e15 }, "heartbeat_ms 9000000000000000 out of range"},
		{"heartbeat negative", func(s *Spec) { s.HeartbeatMs = -1 }, "heartbeat_ms -1 out of range"},
		{"no services", func(s *Spec) { s.Services = nil }, "at least one service"},
		{"dup service", func(s *Spec) { s.Services = append(s.Services, s.Services[0]) }, "duplicate service name"},
		{"bad store", func(s *Spec) { s.Services[0].Store = "mongo" }, `unknown store "mongo"`},
		{"bad rps", func(s *Spec) { s.Services[0].RPS = 0 }, "positive rps"},
		{"negative records", func(s *Spec) { s.Services[0].RecordCount = -5 }, "record_count must not be negative"},
		{"bad kind", func(s *Spec) { s.Batch.Kinds = []string{"quantum"} }, `unknown batch kind "quantum"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := DefaultSpec()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	big := DefaultSpec()
	big.Nodes = 1024
	big.Placer = PlacerScore
	big.LoD = LoDAuto
	if err := big.Validate(); err != nil {
		t.Fatalf("1024-node score/lod spec invalid: %v", err)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"nodes": 2, "scheduler": "vpi"}`))
	if err == nil || !strings.Contains(err.Error(), "scheduler") {
		t.Fatalf("Load accepted unknown field: %v", err)
	}
}
