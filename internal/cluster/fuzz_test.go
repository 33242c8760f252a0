package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/holmes-colocation/holmes/internal/faults"
	"github.com/holmes-colocation/holmes/internal/scenario"
)

// FuzzClusterSpec fuzzes the holmes-cluster -spec entry point: Load must
// never panic, and every spec it accepts must have a sane round clock
// and survive a marshal -> Load round trip.
func FuzzClusterSpec(f *testing.F) {
	full := DefaultSpec()
	topo := scenario.DefaultTopology(60_000, 4)
	full.Topology = &topo
	chaos := faults.DefaultSchedule()
	full.Chaos = &chaos
	for _, s := range []Spec{DefaultSpec(), full} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Add(`{"nodes": 2, "cores_per_node": 4, "duration_seconds": 1, "warmup_seconds": 1e300, "services": [{"name": "a", "store": "redis", "rps": 1}]}`)
	f.Add(`{"nodes": 2, "cores_per_node": 4, "duration_seconds": 1e10, "services": [{"name": "a", "store": "redis", "rps": 1}]}`)
	f.Add(`{"nodes": 2, "cores_per_node": 4, "duration_seconds": 1, "heartbeat_ms": 9000000000000000, "services": [{"name": "a", "store": "redis", "rps": 1}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Load(strings.NewReader(in))
		if err != nil {
			return
		}
		if hb := s.heartbeatNs(); hb <= 0 {
			t.Fatalf("accepted spec has heartbeat %d ns", hb)
		}
		if w, m := s.rounds(); w < 0 || m < 1 {
			t.Fatalf("accepted spec has %d warmup and %d measured rounds", w, m)
		}
		if ns := s.totalSimNs(); ns <= 0 {
			t.Fatalf("accepted spec runs %d simulated ns", ns)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		if _, err := Load(bytes.NewReader(b)); err != nil {
			t.Fatalf("round trip rejected: %v\nspec: %s", err, b)
		}
	})
}
