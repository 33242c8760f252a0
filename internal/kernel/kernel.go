// Package kernel is the simulated operating-system layer above the machine:
// processes and threads, per-logical-CPU runqueues with round-robin
// timeslicing, CPU affinity in the style of sched_setaffinity, and the
// CPU-usage accounting Holmes's metric monitor reads.
//
// Holmes is a *user-space* system: everything it does goes through exactly
// two kernel interfaces — reading performance counters (package perf) and
// setting thread affinity (Kernel.SetAffinity). This package provides the
// second, plus the process bookkeeping a /proc filesystem would.
package kernel

import (
	"fmt"
	"sort"

	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/telemetry"
)

// Kernel owns process scheduling for one simulated machine.
type Kernel struct {
	m    *machine.Machine
	topo cpuid.Topology

	nextPID int
	nextTID int
	procs   map[int]*Process
	threads map[int]*Thread
	byHW    map[*machine.Thread]*Thread

	// Per-logical-CPU runqueues. rq[p][0] is the running thread.
	rq         [][]*Thread
	sliceTicks int
	sliceLeft  []int

	// occupied lists the CPUs with non-empty runqueues in ascending
	// order, so the per-tick Assign scan visits only CPUs carrying work
	// instead of the full topology. enqueue/dequeue keep it in lockstep
	// with rq.
	occupied []int32

	// qgen counts runqueue changes: membership, order, affinity. The
	// machine's interval engine polls it to detect, mid-stretch, that the
	// assignment it batched under is no longer provably fixed.
	qgen uint64
	// ivalCPUs snapshots occupied for the interval in flight: EndInterval
	// replays per-tick accounting against the runqueue membership the
	// batched ticks actually started with, which a change during the
	// final tick must not perturb.
	ivalCPUs []int32

	// stealPeriod controls how often idle CPUs pull work from loaded
	// allowed CPUs, in ticks.
	stealPeriod int
	tickCount   int

	// Migration accounting: forced moves from SetAffinity and idle-CPU
	// steals. The telemetry handles are nil until SetTelemetry; every
	// record call on them is then a single atomic op.
	migrations int64
	steals     int64
	telMigr    *telemetry.Counter
	telSteals  *telemetry.Counter
	telDepth   *telemetry.Histogram
}

// New creates a Kernel and installs it as the machine's tick scheduler.
func New(m *machine.Machine) *Kernel {
	n := m.Topology().LogicalCPUs()
	k := &Kernel{
		m:           m,
		topo:        m.Topology(),
		procs:       map[int]*Process{},
		threads:     map[int]*Thread{},
		byHW:        map[*machine.Thread]*Thread{},
		rq:          make([][]*Thread, n),
		sliceTicks:  100, // 1 ms at the default 10 µs tick
		sliceLeft:   make([]int, n),
		stealPeriod: 10,
	}
	m.SetScheduler(k)
	return k
}

// Machine returns the underlying machine.
func (k *Kernel) Machine() *machine.Machine { return k.m }

// SetTelemetry resolves the kernel's metric handles in the given set.
// Call once at setup; a nil set leaves telemetry disabled.
func (k *Kernel) SetTelemetry(set *telemetry.Set) {
	if set == nil || set.Registry == nil {
		return
	}
	k.telMigr = set.Registry.Counter("kernel_migrations_total",
		"thread migrations forced by affinity changes")
	k.telSteals = set.Registry.Counter("kernel_steals_total",
		"threads pulled to idle CPUs by work stealing")
	k.telDepth = set.Registry.Histogram("kernel_runqueue_depth",
		"per-CPU runqueue depth sampled at steal periods", 1, 64, 5)
}

// Migrations returns (affinity-forced migrations, idle steals).
func (k *Kernel) Migrations() (migrations, steals int64) {
	return k.migrations, k.steals
}

// TickCount returns the number of scheduling ticks the kernel has
// accounted for, including ticks replayed by the idle and interval fast
// paths.
func (k *Kernel) TickCount() int { return k.tickCount }

// Process is a simulated OS process: a named group of threads sharing a
// default affinity.
type Process struct {
	PID  int
	Name string

	k       *Kernel
	threads []*Thread
	exited  bool
}

// Thread is a kernel-schedulable thread wrapping a hardware context.
type Thread struct {
	TID  int
	Proc *Process
	HW   *machine.Thread

	affinity cpuid.Mask
	cpu      int // runqueue the thread is on; -1 when not enqueued
	enqueued bool
}

// Spawn creates a process with n threads, all allowed on every CPU.
func (k *Kernel) Spawn(name string, n int) *Process {
	k.nextPID++
	p := &Process{PID: k.nextPID, Name: name, k: k}
	k.procs[p.PID] = p
	full := cpuid.FullMask(k.topo.LogicalCPUs())
	for i := 0; i < n; i++ {
		k.addThread(p, fmt.Sprintf("%s/%d", name, i), full)
	}
	return p
}

// addThread creates one thread inside p.
func (k *Kernel) addThread(p *Process, name string, aff cpuid.Mask) *Thread {
	k.nextTID++
	t := &Thread{TID: k.nextTID, Proc: p, affinity: aff, cpu: -1}
	t.HW = k.m.NewThread(name, (*listener)(t))
	p.threads = append(p.threads, t)
	k.threads[t.TID] = t
	k.byHW[t.HW] = t
	return t
}

// AddThread adds a thread to an existing process, inheriting the process's
// first thread's affinity (or all CPUs if none).
func (p *Process) AddThread(name string) *Thread {
	if p.exited {
		panic("kernel: AddThread on exited process")
	}
	aff := cpuid.FullMask(p.k.topo.LogicalCPUs())
	if len(p.threads) > 0 {
		aff = p.threads[0].affinity
	}
	return p.k.addThread(p, name, aff)
}

// Threads returns the live threads of the process.
func (p *Process) Threads() []*Thread { return p.threads }

// Exit terminates the process and all its threads.
func (p *Process) Exit() {
	if p.exited {
		return
	}
	p.exited = true
	for _, t := range p.threads {
		t.HW.Exit() // triggers ThreadStopped -> dequeue
		delete(p.k.threads, t.TID)
		delete(p.k.byHW, t.HW)
	}
	delete(p.k.procs, p.PID)
}

// Exited reports whether the process has terminated.
func (p *Process) Exited() bool { return p.exited }

// CPUTimeNs returns the total CPU time consumed by the process's threads.
func (p *Process) CPUTimeNs() float64 {
	var cycles float64
	for _, t := range p.threads {
		cycles += t.HW.ConsumedCycles
	}
	return p.k.m.Config().CyclesToNs(cycles)
}

// SetAffinity applies a CPU mask to every thread of the process
// (the cgroup cpuset semantic Yarn containers use).
func (p *Process) SetAffinity(mask cpuid.Mask) error {
	for _, t := range p.threads {
		if err := p.k.SetAffinity(t.TID, mask); err != nil {
			return err
		}
	}
	return nil
}

// Process returns the process with the given PID, or nil.
func (k *Kernel) Process(pid int) *Process { return k.procs[pid] }

// Thread returns the thread with the given TID, or nil.
func (k *Kernel) Thread(tid int) *Thread { return k.threads[tid] }

// Processes returns all live processes sorted by PID.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// Affinity returns a thread's current allowed-CPU mask.
func (t *Thread) Affinity() cpuid.Mask { return t.affinity }

// CPU returns the logical CPU the thread is currently queued on, or -1.
func (t *Thread) CPU() int {
	if !t.enqueued {
		return -1
	}
	return t.cpu
}

// SetAffinity is the simulated sched_setaffinity: it restricts tid to the
// CPUs in mask, migrating the thread immediately if its current CPU is no
// longer allowed. An empty mask or unknown TID is an error (EINVAL/ESRCH).
func (k *Kernel) SetAffinity(tid int, mask cpuid.Mask) error {
	t, ok := k.threads[tid]
	if !ok {
		return fmt.Errorf("kernel: no such thread %d (ESRCH)", tid)
	}
	valid := mask.Intersect(cpuid.FullMask(k.topo.LogicalCPUs()))
	if valid.Empty() {
		return fmt.Errorf("kernel: empty affinity mask for thread %d (EINVAL)", tid)
	}
	t.affinity = valid
	k.qgen++ // affinity shapes steal decisions; end any open interval
	if t.enqueued && !valid.Has(t.cpu) {
		k.dequeue(t)
		k.enqueue(t)
		k.migrations++
		k.telMigr.Inc()
	}
	return nil
}

// listener adapts machine thread lifecycle callbacks onto kernel threads.
type listener Thread

func (l *listener) ThreadReady(hw *machine.Thread) {
	t := (*Thread)(l)
	t.Proc.k.enqueue(t)
}

func (l *listener) ThreadStopped(hw *machine.Thread) {
	t := (*Thread)(l)
	t.Proc.k.dequeue(t)
}

// enqueue places a runnable thread on the least-loaded allowed CPU.
// Ties go to the lowest CPU index. This runs on every thread wake, so it
// scans the mask directly rather than materializing affinity.CPUs().
func (k *Kernel) enqueue(t *Thread) {
	if t.enqueued {
		return
	}
	best, bestLen := -1, int(^uint(0)>>1)
	for c := 0; c < len(k.rq); c++ {
		if !t.affinity.Has(c) {
			continue
		}
		if l := len(k.rq[c]); l < bestLen {
			best, bestLen = c, l
			if l == 0 {
				break // nothing beats an empty queue at the lowest index
			}
		}
	}
	if best < 0 {
		return // unreachable: affinity is never empty
	}
	t.cpu = best
	t.enqueued = true
	k.rq[best] = append(k.rq[best], t)
	if len(k.rq[best]) == 1 {
		k.occupy(best)
	}
	k.qgen++
}

// dequeue removes a thread from its runqueue.
func (k *Kernel) dequeue(t *Thread) {
	if !t.enqueued {
		return
	}
	q := k.rq[t.cpu]
	for i, other := range q {
		if other == t {
			k.rq[t.cpu] = append(q[:i], q[i+1:]...)
			break
		}
	}
	if len(k.rq[t.cpu]) == 0 {
		k.unoccupy(t.cpu)
	}
	t.enqueued = false
	t.cpu = -1
	k.qgen++
}

// occupy inserts CPU p into the sorted occupied list.
func (k *Kernel) occupy(p int) {
	i := sort.Search(len(k.occupied), func(i int) bool { return k.occupied[i] >= int32(p) })
	k.occupied = append(k.occupied, 0)
	copy(k.occupied[i+1:], k.occupied[i:])
	k.occupied[i] = int32(p)
}

// unoccupy removes CPU p from the sorted occupied list.
func (k *Kernel) unoccupy(p int) {
	i := sort.Search(len(k.occupied), func(i int) bool { return k.occupied[i] >= int32(p) })
	if i < len(k.occupied) && k.occupied[i] == int32(p) {
		k.occupied = append(k.occupied[:i], k.occupied[i+1:]...)
	}
}

// Assign implements machine.TickScheduler: round-robin within each
// runqueue with a fixed timeslice, plus periodic work stealing so threads
// squeezed onto shared CPUs spread back out when capacity frees up.
func (k *Kernel) Assign(nowNs int64, assign []*machine.Thread) {
	k.tickCount++
	if k.stealPeriod > 0 && k.tickCount%k.stealPeriod == 0 {
		k.steal()
		if k.telDepth != nil {
			for p := range k.rq {
				// Depth 0 clamps into the first bucket by design: the
				// histogram answers "how deep when occupied", and idle
				// CPUs would otherwise dominate every quantile.
				k.telDepth.Observe(float64(len(k.rq[p])))
			}
		}
	}
	for _, p32 := range k.occupied {
		p := int(p32)
		q := k.rq[p]
		k.sliceLeft[p]--
		if k.sliceLeft[p] <= 0 {
			if len(q) > 1 {
				// Rotate: running thread to the back.
				first := q[0]
				copy(q, q[1:])
				q[len(q)-1] = first
			}
			k.sliceLeft[p] = k.sliceTicks
		}
		assign[p] = q[0].HW
	}
}

// SkipIdleTicks implements machine.IdleSkipper: the machine calls it in
// place of n consecutive Assign calls during which no thread was runnable.
// Runqueues hold exactly the runnable threads (ThreadReady/ThreadStopped
// keep them in lockstep with machine thread state), so on such ticks every
// queue is empty and Assign would only have advanced the tick counter,
// found no steal victim, and — on steal-period boundaries — observed a
// depth of 0 for every CPU. Replaying that accounting in aggregate keeps
// the steal cadence and the depth histogram byte-identical to stepping.
func (k *Kernel) SkipIdleTicks(n int64) {
	before := k.tickCount
	k.tickCount += int(n)
	if k.stealPeriod > 0 && k.telDepth != nil {
		crossed := int64(k.tickCount/k.stealPeriod - before/k.stealPeriod)
		if crossed > 0 {
			k.telDepth.ObserveN(0, crossed*int64(len(k.rq)))
		}
	}
}

// steal moves one waiting thread from the most loaded runqueue to each
// idle CPU that is allowed to run it.
func (k *Kernel) steal() {
	// Victims require a queue with a waiter beyond its running thread;
	// only occupied CPUs can hold one, so an occupied scan both provides
	// the cheap no-waiter early exit and bounds the per-idle-CPU search.
	hasWaiter := false
	for _, q := range k.occupied {
		if len(k.rq[q]) > 1 {
			hasWaiter = true
			break
		}
	}
	if !hasWaiter {
		return
	}
	for p := range k.rq {
		if len(k.rq[p]) > 0 {
			continue
		}
		// Find the most loaded queue with a migratable waiter. occupied is
		// ascending, so the scan visits queues in the same order as the
		// full CPU loop it replaces.
		var victim *Thread
		victimLoad := 1 // require at least 2 threads (1 running + 1 waiting)
		for _, q32 := range k.occupied {
			q := int(q32)
			if len(k.rq[q]) <= victimLoad {
				continue
			}
			for _, cand := range k.rq[q][1:] {
				if cand.affinity.Has(p) {
					victim = cand
					victimLoad = len(k.rq[q])
					break
				}
			}
		}
		if victim != nil {
			k.dequeue(victim)
			victim.cpu = p
			victim.enqueued = true
			k.rq[p] = append(k.rq[p], victim)
			k.occupy(p)
			k.qgen++
			k.steals++
			k.telSteals.Inc()
		}
	}
}

// RunnableOn returns the TIDs queued on logical CPU p (running first).
func (k *Kernel) RunnableOn(p int) []int {
	out := make([]int, 0, len(k.rq[p]))
	for _, t := range k.rq[p] {
		out = append(out, t.TID)
	}
	return out
}

// QueueLen returns the runqueue length of logical CPU p.
func (k *Kernel) QueueLen(p int) int { return len(k.rq[p]) }
