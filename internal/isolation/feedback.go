package isolation

import (
	"fmt"

	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/machine"
)

// The Table 4 convergence study compares Holmes against three SMT-aware
// systems. The originals are closed or kernel-resident; what the table
// compares is their *control-loop reaction time*, so the reproductions
// here implement the corresponding control loops faithfully at the level
// the paper cites:
//
//   - Heracles (ISCA'15): a top-level feedback controller polling the
//     service's SLO slack every 15 s epoch and stepping batch resources;
//     convergence takes about two epochs, ~30 s.
//   - Parties (ASPLOS'19): a finer 0.5 s controller that adjusts one
//     resource *dimension* at a time (cores, then frequency, then cache
//     partitions in a round-robin hunt) and must observe the effect
//     before the next move — converging in 10-20 s.
//   - Caladan (OSDI'20): a dedicated scheduler core polling queueing
//     signals every ~10 µs and pausing batch hyperthreads immediately —
//     ~20 µs reaction, faster than Holmes's 50-100 µs user-space loop
//     but requiring kernel modifications.
//
// Each controller exposes ConvergenceNs so the experiment can measure
// stimulus-to-steady-state time.

// LatencyProbe reports the service's current latency observation (e.g.
// windowed p99 in ns) to a feedback controller.
type LatencyProbe func() float64

// FeedbackConfig parameterizes Heracles-like and Parties-like loops.
type FeedbackConfig struct {
	// EpochNs is the control epoch.
	EpochNs int64
	// SLONs is the latency target.
	SLONs float64
	// ResourceDimensions is how many knobs the controller hunts through
	// round-robin before repeating a dimension (Parties: cores, core
	// frequency, LLC ways -> 3; Heracles: 1, its subcontrollers run in
	// parallel under the top-level gate).
	ResourceDimensions int
	// SettleEpochs is how many consecutive in-SLO epochs count as
	// converged.
	SettleEpochs int
	// StepAll, when true, withdraws every LC sibling in one action
	// (Heracles's top-level controller disables best-effort growth
	// wholesale on an SLO violation) instead of one per epoch.
	StepAll bool
}

// HeraclesConfig returns the Heracles-like loop settings.
func HeraclesConfig(sloNs float64) FeedbackConfig {
	return FeedbackConfig{
		EpochNs:            15_000_000_000, // 15 s top-level epoch
		SLONs:              sloNs,
		ResourceDimensions: 1,
		SettleEpochs:       1,
		StepAll:            true,
	}
}

// PartiesConfig returns the Parties-like loop settings.
func PartiesConfig(sloNs float64) FeedbackConfig {
	return FeedbackConfig{
		EpochNs: 500_000_000, // 0.5 s
		SLONs:   sloNs,
		// Parties hunts across cores, core frequency, LLC ways, memory,
		// disk and network bandwidth one dimension at a time.
		ResourceDimensions: 6,
		SettleEpochs:       3,
	}
}

// Feedback is a running feedback controller. It manages the same lever
// Holmes does — which LC siblings batch jobs may use — but moves one step
// per epoch gated on observed latency.
type Feedback struct {
	cfg   FeedbackConfig
	m     *machine.Machine
	k     *kernel.Kernel
	probe LatencyProbe

	// siblings of the LC CPUs, in eviction order.
	siblings []int
	evicted  int // how many siblings are currently withdrawn
	// batch processes under management.
	procs []*kernel.Process
	// full batch mask before any eviction.
	baseMask cpuid.Mask

	dimension   int
	inSLOStreak int
	stimulusNs  int64
	convergedAt int64
	epochs      int64
	stop        func()
	stopped     bool
}

// StartFeedback launches a feedback controller managing the given batch
// processes and the siblings of the given LC CPUs.
func StartFeedback(k *kernel.Kernel, cfg FeedbackConfig, probe LatencyProbe,
	lcCPUs cpuid.Mask, batch []*kernel.Process) (*Feedback, error) {
	if cfg.EpochNs <= 0 || cfg.SLONs <= 0 || probe == nil {
		return nil, fmt.Errorf("isolation: invalid feedback config")
	}
	m := k.Machine()
	f := &Feedback{
		cfg:         cfg,
		m:           m,
		k:           k,
		probe:       probe,
		procs:       batch,
		convergedAt: -1,
		stimulusNs:  -1,
	}
	topo := m.Topology()
	f.baseMask = cpuid.FullMask(topo.LogicalCPUs()).Subtract(lcCPUs)
	for _, lc := range lcCPUs.CPUs() {
		f.siblings = append(f.siblings, topo.SiblingOf(lc))
	}
	f.stop = m.SchedulePeriodic(cfg.EpochNs, f.epoch)
	return f, nil
}

// Stop halts the controller.
func (f *Feedback) Stop() {
	if !f.stopped {
		f.stopped = true
		f.stop()
	}
}

// MarkStimulus records when the disturbance began (for convergence
// measurement) and resets convergence state.
func (f *Feedback) MarkStimulus(nowNs int64) {
	f.stimulusNs = nowNs
	f.convergedAt = -1
	f.inSLOStreak = 0
}

// ConvergenceNs returns the stimulus-to-convergence delay, or -1.
func (f *Feedback) ConvergenceNs() int64 {
	if f.convergedAt < 0 || f.stimulusNs < 0 {
		return -1
	}
	return f.convergedAt - f.stimulusNs
}

// Epochs returns the number of control epochs executed.
func (f *Feedback) Epochs() int64 { return f.epochs }

// EvictedSiblings returns how many LC siblings are currently withdrawn.
func (f *Feedback) EvictedSiblings() int { return f.evicted }

func (f *Feedback) currentMask() cpuid.Mask {
	mask := f.baseMask
	for i := 0; i < f.evicted && i < len(f.siblings); i++ {
		mask.Clear(f.siblings[i])
	}
	return mask
}

func (f *Feedback) applyMask() {
	mask := f.currentMask()
	for _, p := range f.procs {
		if !p.Exited() {
			_ = p.SetAffinity(mask)
		}
	}
}

// epoch runs one control iteration: measure, then move at most one step
// in one resource dimension.
func (f *Feedback) epoch(nowNs int64) {
	if f.stopped {
		return
	}
	f.epochs++
	lat := f.probe()
	if lat <= f.cfg.SLONs {
		f.inSLOStreak++
		if f.convergedAt < 0 && f.stimulusNs >= 0 && f.inSLOStreak >= f.cfg.SettleEpochs {
			f.convergedAt = nowNs
		}
		// Heracles-style growth: with slack, tentatively return one
		// sibling to batch (only after convergence settles, to avoid
		// flapping during the settle window).
		if f.inSLOStreak > f.cfg.SettleEpochs*2 && f.evicted > 0 {
			f.evicted--
			f.applyMask()
			f.inSLOStreak = f.cfg.SettleEpochs // re-observe
		}
		return
	}
	f.inSLOStreak = 0
	// Out of SLO: hunt. Only one dimension per epoch; only the "cores"
	// dimension actually helps, the others model Parties trying
	// frequency and cache knobs first.
	dim := f.dimension
	f.dimension = (f.dimension + 1) % f.cfg.ResourceDimensions
	if dim != 0 {
		return // adjusted an ineffective knob this epoch
	}
	if f.evicted < len(f.siblings) {
		if f.cfg.StepAll {
			f.evicted = len(f.siblings)
		} else {
			f.evicted++
		}
		f.applyMask()
	}
}
