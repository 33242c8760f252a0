package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"github.com/holmes-colocation/holmes/internal/kvstore"
	"github.com/holmes-colocation/holmes/internal/kvstore/memcached"
	"github.com/holmes-colocation/holmes/internal/kvstore/redis"
)

func TestOKPct(t *testing.T) {
	for _, c := range []struct {
		ops, failed int64
		passed      bool
		want        float64
	}{
		{1000, 0, true, 100},
		{1000, 64, true, 93.6},
		{1000, 0, false, 0}, // a failed check fails every operation
		{0, 0, true, 0},
	} {
		if got := okPct(c.ops, c.failed, c.passed); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("okPct(%d, %d, %v) = %v, want %v", c.ops, c.failed, c.passed, got, c.want)
		}
	}
}

func TestSimSpeed(t *testing.T) {
	if got := simSpeed(17, 7, 0.5); math.Abs(got-17/6.5) > 1e-12 {
		t.Errorf("simSpeed(17, 7, 0.5) = %v, want %v", got, 17/6.5)
	}
	if got := simSpeed(17, 0.4, 0.5); got != 0 {
		t.Errorf("set-up longer than the run: %v, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestAverageSims(t *testing.T) {
	a := averageSims([]sim{
		{TailUs: 40, SLOViolPct: 1, UtilPct: 10, BatchDone: 4, Queries: 100, Ops: 110, FailedOps: 10},
		{TailUs: 60, SLOViolPct: 0, UtilPct: 20, BatchDone: 5, Queries: 300, Ops: 300},
	})
	want := simMean{TailUs: 50, SLOViolPct: 0.25, UtilPct: 15, BatchDone: 4.5, Ops: 410, FailedOps: 10}
	if a != want {
		t.Errorf("averageSims = %+v, want %+v", a, want)
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metrics the program
// reports are the ones BENCHMARK.json declares, with valid names.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []def) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i, d := range got {
			w := want[i]
			if d.name != w.Name || d.unit != w.Unit || d.better != w.Better {
				t.Errorf("%s[%d]: program %+v, BENCHMARK.json %+v", kind, i, d, w)
			}
			if !validMetric(d) {
				t.Errorf("%s: invalid metric %+v", kind, d)
			}
		}
	}
	check("end_to_end", endToEnd, bench.EndToEnd)
	check("per_layer", perLayer, bench.PerLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	for i, w := range bench.Workloads {
		if i >= len(workloads) || workloads[i] != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %v", i, w.Name, workloads)
		}
		if !metricName.MatchString(w.Name) {
			t.Errorf("invalid workload name %q", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
}

func TestValidMetric(t *testing.T) {
	for _, d := range []metricDef{
		{"", "s", "lower"},
		{"_x", "s", "lower"},
		{"a b", "s", "lower"},
		{"x", "", "lower"},
		{"x", "µs", "lower"},
		{"x", "s", "smaller"},
	} {
		if validMetric(d) {
			t.Errorf("validMetric(%+v) = true", d)
		}
	}
}

func TestSeedPlumbing(t *testing.T) {
	seen := map[uint64]string{}
	for _, w := range workloads {
		for seed := uint64(0); seed < 3; seed++ {
			for i := 0; i < 3; i++ {
				s := specSeed(w, seed, i)
				if s != specSeed(w, seed, i) {
					t.Fatalf("specSeed(%s, %d, %d) is not deterministic", w, seed, i)
				}
				if prev, dup := seen[s]; dup {
					t.Errorf("specSeed collision: %s and %s/%d/%d", prev, w, seed, i)
				}
				seen[s] = w
			}
		}
	}
	if coloSpec(7).Seed != 7 || fleetSpec(7).Seed != 7 || trafficSpec(7).Seed != 7 {
		t.Error("a workload spec ignores its seed")
	}
	for _, w := range workloads {
		if n := repeats(w, 30); n < minRuns || n != repeats(w, 30) {
			t.Errorf("repeats(%s, 30) = %d", w, n)
		}
		if n := repeats(w, 1); n != minRuns {
			t.Errorf("repeats(%s, 1) = %d, want %d", w, n, minRuns)
		}
		if err := validArgs(w, 30, 1); err != nil {
			t.Errorf("validArgs(%s): %v", w, err)
		}
	}
	for _, bad := range []error{validArgs("nope", 30, 0), validArgs(workloads[0], 0, 0), validArgs(workloads[0], 30, 2)} {
		if bad == nil {
			t.Error("validArgs accepted bad arguments")
		}
	}
}

// TestTimedStoreInterfaces checks that the timing wrapper exposes exactly
// the optional interfaces of the store it wraps, since lcservice changes
// behaviour on kvstore.Backgrounder.
func TestTimedStoreInterfaces(t *testing.T) {
	ts, rs := wrapStore(redis.New(redis.DefaultConfig()))
	if _, ok := rs.(kvstore.Backgrounder); !ok {
		t.Error("wrapped redis lost kvstore.Backgrounder")
	}
	if _, ok := rs.(kvstore.MemoryReporter); !ok {
		t.Error("wrapped redis lost kvstore.MemoryReporter")
	}
	_, ms := wrapStore(memcached.New(memcached.DefaultConfig()))
	if _, ok := ms.(kvstore.Backgrounder); ok {
		t.Error("wrapped memcached gained kvstore.Backgrounder")
	}
	rs.Insert("k", []byte("v"))
	if r := rs.Read("k"); !r.Found || ts.ops != 2 {
		t.Errorf("read after insert: found %v, %d timed ops", r.Found, ts.ops)
	}
}
