package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"github.com/holmes-colocation/holmes/internal/rng"
)

// workloads are the benchmark's workload names, in BENCHMARK.json order.
var workloads = []string{"colo-holmes", "fleet-256", "traffic-day"}

// minRuns is the fewest repeats one untraced invocation makes.
const minRuns = 3

// nominalRepeatS is the wall time of one set-up run plus one full run of
// each workload on a 2-core x86 container; --seconds divided by it gives
// the repeat count. The count depends only on the flags, never on a
// clock, so a seed always averages the same inputs.
var nominalRepeatS = map[string]float64{
	"colo-holmes": 7.5,
	"fleet-256":   6.5,
	"traffic-day": 3.3,
}

// childTimeout bounds the whole invocation: every child is killed once it
// is exceeded, so the benchmark ends well inside three minutes.
const childTimeout = 170 * time.Second

func main() {
	var (
		child    = flag.String("child", "", "internal: run one `mode` of the workload in this process")
		workload = flag.String("workload", "", "workload `name`: colo-holmes, fleet-256 or traffic-day")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 30, "measurement budget in seconds")
		traced   = flag.Int("trace", 0, "1 for the profiled per-layer run, 0 for end-to-end metrics")
	)
	flag.Parse()
	if *child != "" {
		out, err := runChild(*workload, *child, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repobench child:", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "repobench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := validArgs(*workload, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	p := &parent{ctx: ctx, workload: *workload, seed: *seed, log: os.Stdout}
	var res *result
	var err error
	if *traced == 1 {
		res, err = p.traced()
	} else {
		res, err = p.untraced(repeats(*workload, *seconds))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func validArgs(workload string, seconds float64, traced int) error {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	case seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	case traced != 0 && traced != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	return nil
}

// repeats is the number of set-up and full runs an untraced invocation
// makes to fill about the given budget.
func repeats(workload string, seconds float64) int {
	return max(minRuns, int(seconds/nominalRepeatS[workload]))
}

// specSeed derives the seed of the workload's i-th repeat from the
// benchmark seed: each repeat simulates different inputs, so the simulated
// metrics average over several draws instead of resting on one.
func specSeed(workload string, seed uint64, i int) uint64 {
	return rng.DeriveSeed(seed, "repobench", workload, strconv.Itoa(i))
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// parent runs child processes, one simulation each, and aggregates them.
type parent struct {
	ctx       context.Context
	workload  string
	seed      uint64
	log       io.Writer
	attempted int
	failed    int
}

// child runs one mode in a fresh process, so every run starts from an
// empty heap and reports its own peak RSS. A child that crashes or fails
// a check counts as a failed attempt.
func (p *parent) child(mode string, repeat int) *outcome {
	p.attempted++
	exe, err := os.Executable()
	if err == nil {
		var stdout bytes.Buffer
		cmd := exec.CommandContext(p.ctx, exe, "-child", mode, "-workload", p.workload,
			"-seed", strconv.FormatUint(specSeed(p.workload, p.seed, repeat), 10))
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err = cmd.Run(); err == nil {
			var out outcome
			if err = json.Unmarshal(stdout.Bytes(), &out); err == nil {
				p.fail(mode, out.Failures...)
				return &out
			}
		}
	}
	p.fail(mode, err.Error())
	return nil
}

// fail records failed checks of one attempt.
func (p *parent) fail(mode string, why ...string) {
	if len(why) == 0 {
		return
	}
	p.failed++
	for _, w := range why {
		fmt.Fprintf(p.log, "FAILED %s %s: %s\n", p.workload, mode, w)
	}
}

// untraced makes n set-up runs and n full runs, repeat i of each on the
// i-th derived seed, and reports the end-to-end metrics: host figures as
// medians over the repeats, simulated ones averaged over them.
func (p *parent) untraced(n int) (*result, error) {
	var wall, setup, rss []float64
	var sims []sim
	var simS float64
	for i := 0; i < n && p.failed == 0 && p.ctx.Err() == nil; i++ {
		s := p.child(modeSetup, i)
		if s == nil {
			break
		}
		r := p.child(modeRun, i)
		if r == nil {
			break
		}
		fmt.Fprintf(p.log, "%s repeat %d: set-up %.3fs, run %.3fs, peak RSS %.0f MB\n",
			p.workload, i, s.SetupS, r.WallS, r.PeakRSSMB)
		setup = append(setup, s.SetupS)
		wall = append(wall, r.WallS)
		rss = append(rss, r.PeakRSSMB)
		sims = append(sims, r.Sim)
		simS = r.SimS
	}
	if len(sims) == 0 {
		return nil, errors.New("no run of the workload completed")
	}
	a := averageSims(sims)
	wallS, setupS := median(wall), median(setup)
	fmt.Fprintf(p.log, "%s seed %d: %d repeats, %d failed\n", p.workload, p.seed, len(sims), p.failed)
	return p.result(endToEnd, map[string]float64{
		"wall_s":       wallS,
		"setup_s":      setupS,
		"sim_speed":    simSpeed(simS, wallS, setupS),
		"peak_rss_mb":  median(rss),
		"lc_tail_us":   a.TailUs,
		"slo_ok_pct":   100 - a.SLOViolPct,
		"cpu_util_pct": a.UtilPct,
		"batch_done":   a.BatchDone,
		"ok_pct":       okPct(a.Ops, a.FailedOps, p.failed == 0),
	}), nil
}

// result reports the given metrics with their declared units.
func (p *parent) result(defs []metricDef, values map[string]float64) *result {
	metrics := map[string]metric{}
	for _, d := range defs {
		metrics[d.name] = metric{values[d.name], d.unit}
	}
	return &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: metrics}
}

// traced makes one untraced run, one profiled run and, per workload, one
// more check or counter run, then reports the per-layer metrics.
func (p *parent) traced() (*result, error) {
	base := p.child(modeRun, 0)
	tr := p.child(modeTraced, 0)
	if base == nil || tr == nil {
		return nil, errors.New("the untraced or the traced run did not complete")
	}
	if base.Sim != tr.Sim {
		p.fail(modeTraced, fmt.Sprintf("simulated outputs differ from the untraced run: %+v vs %+v", tr.Sim, base.Sim))
	}
	layers := tr.Layers
	if p.workload == "colo-holmes" {
		if pin := p.child(modePin, 0); pin != nil {
			want := base.Sim
			want.SLOViolPct, want.MinQueries, want.Ops, want.FailedOps = 0, 0, 0, 0
			if pin.Sim != want {
				p.fail(modePin, fmt.Sprintf("scenario.Run gives %+v, the benchmark's assembly %+v", pin.Sim, want))
			}
		}
	} else if c := p.child(modeCounters, 0); c != nil {
		for k, v := range c.Layers {
			layers[k] = v
		}
	}
	layers["trace.overhead_pct"] = 100 * (tr.WallS - base.WallS) / base.WallS
	fmt.Fprintf(p.log, "%s seed %d traced: %.0f profile samples over %.2fs (untraced %.2fs), %d failed\n",
		p.workload, p.seed, layers["profile.samples"], tr.WallS, base.WallS, p.failed)
	return p.result(perLayer, layers), nil
}
