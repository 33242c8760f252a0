package isolation

import (
	"fmt"

	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/kernel"
)

// Policy is a running CPU-scheduling policy as a co-location run drives
// it: latency-critical processes are registered once their services are
// up, and the policy is stopped when the run ends. core.Daemon, PerfIso,
// Static and Pin's baseline implement it.
type Policy interface {
	RegisterLC(pid int) error
	Stop()
}

// pinned is the no-policy baseline.
type pinned struct {
	k    *kernel.Kernel
	mask cpuid.Mask
}

// Pin returns the no-policy baseline: each registered latency-critical
// process is pinned to mask once, and nothing else is ever managed.
func Pin(k *kernel.Kernel, mask cpuid.Mask) Policy { return pinned{k, mask} }

// RegisterLC pins the process onto the mask.
func (p pinned) RegisterLC(pid int) error {
	proc := p.k.Process(pid)
	if proc == nil {
		return fmt.Errorf("isolation: no such process %d", pid)
	}
	return proc.SetAffinity(p.mask)
}

// Stop is a no-op: a pinned baseline has nothing running.
func (pinned) Stop() {}
