package scenario

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/holmes-colocation/holmes/internal/golden"
)

func minimalSpec() Spec {
	return Spec{
		Name:            "test",
		Scheduler:       "holmes",
		Services:        []ServiceSpec{{Store: "redis", Workload: "a", RPS: 8000}},
		Batch:           &BatchSpec{Continuous: true},
		WarmupSeconds:   0.5,
		DurationSeconds: 2,
		Seed:            1,
	}
}

// checkGolden pins a Run outcome: the digest of its rendering plus every
// Report field except the echoed Spec must match testdata/golden.json.
func checkGolden(t *testing.T, key string, rep *Report) {
	t.Helper()
	r := *rep
	r.Spec = Spec{}
	golden.Check(t, "testdata/golden.json", key, rep.Render()+fmt.Sprintf("%+v", r))
}

func TestLoadValidJSON(t *testing.T) {
	doc := `{
		"name": "two-services",
		"machine": {"cores": 16},
		"scheduler": "holmes",
		"holmes": {"e": 40, "interval_us": 100},
		"services": [
			{"store": "redis", "workload": "a", "rps": 8000},
			{"store": "memcached", "workload": "b", "rps": 20000}
		],
		"batch": {"continuous": true, "concurrent_jobs": 3},
		"warmup_seconds": 1,
		"duration_seconds": 5,
		"seed": 7
	}`
	spec, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Services) != 2 || spec.Holmes.E != 40 {
		t.Fatalf("parsed: %+v", spec)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	doc := `{"services": [{"store":"redis","rps":1}], "duration_seconds": 1, "bogus": true}`
	if _, err := Load(strings.NewReader(doc)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string // substring the error message must carry
	}{
		{"empty services", func(s *Spec) { s.Services = nil }, "at least one service"},
		{"unknown store", func(s *Spec) { s.Services[0].Store = "cassandra" }, `unknown store "cassandra"`},
		{"unknown workload", func(s *Spec) { s.Services[0].Workload = "z" }, "z"},
		{"zero rps", func(s *Spec) { s.Services[0].RPS = 0 }, "positive rps"},
		{"unknown scheduler", func(s *Spec) { s.Scheduler = "bogus" }, `unknown scheduler "bogus"`},
		{"zero duration", func(s *Spec) { s.DurationSeconds = 0 }, "duration_seconds must be positive"},
		{"negative duration", func(s *Spec) { s.DurationSeconds = -3 }, "duration_seconds must be positive"},
		{"cores out of range", func(s *Spec) { s.Machine.Cores = 1000 }, "cores 1000 out of range"},
		{"negative records", func(s *Spec) { s.Services[0].RecordCount = -5 }, "record_count must not be negative"},
		{"inverted burst", func(s *Spec) { s.Services[0].BurstSeconds = [2]float64{1, -1} }, "burst_seconds"},
		{"sub-nanosecond burst", func(s *Spec) { s.Services[0].BurstSeconds = [2]float64{1e-12, 1} }, "burst_seconds"},
		{"negative gap", func(s *Spec) {
			s.Services[0].BurstSeconds = [2]float64{1, 2}
			s.Services[0].GapSeconds = [2]float64{-1, 1}
		}, "gap_seconds"},
		{"inverted gap", func(s *Spec) {
			s.Services[0].BurstSeconds = [2]float64{1, 2}
			s.Services[0].GapSeconds = [2]float64{2, 1}
		}, "gap_seconds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := minimalSpec()
			tc.mutate(&spec)
			err := spec.Validate()
			if err == nil {
				t.Fatalf("accepted: %+v", spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadReportsValidationErrors pins the parse path: Load must surface
// Validate's message, so a bad JSON spec fails with a usable diagnostic.
func TestLoadReportsValidationErrors(t *testing.T) {
	doc := `{"scheduler": "rr", "services": [{"store":"redis","rps":1}], "duration_seconds": 1}`
	_, err := Load(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), `unknown scheduler "rr"`) {
		t.Fatalf("want unknown-scheduler error, got %v", err)
	}
}

func TestRunSingleService(t *testing.T) {
	rep, err := Run(minimalSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Services) != 1 {
		t.Fatalf("services = %d", len(rep.Services))
	}
	s := rep.Services[0]
	if s.Queries == 0 || s.Summary.Mean <= 0 {
		t.Fatalf("no queries served: %+v", s)
	}
	if rep.CompletedJobs == 0 {
		t.Fatal("no batch jobs completed")
	}
	if rep.AvgCPUUtil < 0.3 {
		t.Fatalf("utilization %.2f too low for co-location", rep.AvgCPUUtil)
	}
	out := rep.Render()
	if !strings.Contains(out, "redis") || !strings.Contains(out, "holmes:") {
		t.Fatalf("render incomplete:\n%s", out)
	}
	checkGolden(t, "single-service", rep)
}

func TestRunTwoServicesShareReservedPool(t *testing.T) {
	spec := minimalSpec()
	spec.Services = append(spec.Services,
		ServiceSpec{Store: "memcached", Workload: "b", RPS: 15000})
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Services) != 2 {
		t.Fatalf("services = %d", len(rep.Services))
	}
	for _, s := range rep.Services {
		if s.Queries == 0 {
			t.Fatalf("service %s served nothing", s.Name)
		}
		// Multi-tenant latency still in the tens-of-microseconds regime.
		if s.Summary.Mean > 5e6 {
			t.Fatalf("service %s mean %.0f implausible", s.Name, s.Summary.Mean)
		}
	}
}

func TestRunPerfIsoAndNone(t *testing.T) {
	for _, sched := range []string{"perfiso", "none", ""} {
		spec := minimalSpec()
		spec.Scheduler = sched
		rep, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if rep.Services[0].Queries == 0 {
			t.Fatalf("%s: no queries", sched)
		}
		if rep.Deallocations != 0 {
			t.Fatalf("%s: holmes stats leaked", sched)
		}
		checkGolden(t, "scheduler-"+defaultStr(sched, "default"), rep)
	}
}

func TestRunBurstyTraffic(t *testing.T) {
	spec := minimalSpec()
	spec.Services[0].BurstSeconds = [2]float64{0.5, 0.8}
	spec.Services[0].GapSeconds = [2]float64{0.1, 0.2}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Services[0].Queries == 0 {
		t.Fatal("bursty traffic served nothing")
	}
}

func TestRunCustomBatchKinds(t *testing.T) {
	spec := minimalSpec()
	spec.Batch.Kinds = []string{"sort", "pagerank"}
	if _, err := Run(spec); err != nil {
		t.Fatal(err)
	}
	spec.Batch.Kinds = []string{"nonsense"}
	if _, err := Run(spec); err == nil {
		t.Fatal("unknown batch kind accepted")
	}
}

func TestRunUsageTriggerMetric(t *testing.T) {
	spec := minimalSpec()
	spec.Holmes = &HolmesSpec{TriggerMetric: "usage"}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Services[0].Queries == 0 {
		t.Fatal("usage trigger scenario served nothing")
	}
}

func TestOversizedReservationRejected(t *testing.T) {
	spec := minimalSpec()
	spec.Machine.Cores = 2
	spec.Holmes = &HolmesSpec{ReservedCPUs: 3}
	if _, err := Run(spec); err == nil {
		t.Fatal("reservation larger than cores accepted")
	}
}

func TestLoadTestdataFile(t *testing.T) {
	f, err := os.Open("testdata/two-tenant.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name == "" || len(spec.Services) != 2 {
		t.Fatalf("parsed testdata: %+v", spec)
	}
	// The shipped example must actually run (shortened).
	spec.DurationSeconds = 1.5
	spec.WarmupSeconds = 0.5
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Services {
		if s.Queries == 0 {
			t.Fatalf("example scenario: %s served nothing", s.Name)
		}
	}
	checkGolden(t, "two-tenant", rep)
}

func TestRunStaticScheduler(t *testing.T) {
	run := func(sched string) *Report {
		spec := minimalSpec()
		spec.Scheduler = sched
		spec.DurationSeconds = 4
		rep, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Services[0].Queries == 0 {
			t.Fatalf("%s scenario served nothing", sched)
		}
		checkGolden(t, "static-vs-holmes-"+sched, rep)
		return rep
	}
	static := run("static")
	holmes := run("holmes")
	// Static wastes the LC siblings permanently: utilization and batch
	// throughput trail a Holmes run of the same mix (§2.2's motivation
	// against static allocation).
	if static.AvgCPUUtil >= holmes.AvgCPUUtil {
		t.Fatalf("static util %.3f should trail holmes %.3f (wasted siblings)",
			static.AvgCPUUtil, holmes.AvgCPUUtil)
	}
	if static.CompletedJobs > holmes.CompletedJobs {
		t.Fatalf("static jobs %d should not exceed holmes %d",
			static.CompletedJobs, holmes.CompletedJobs)
	}
}
