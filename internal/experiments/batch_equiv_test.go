package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/holmes-colocation/holmes/internal/golden"
	"github.com/holmes-colocation/holmes/internal/machine"
)

// TestRegistryBatchingEquivalence is the registry-wide half of the
// interval-batching equivalence contract (the per-scenario half lives in
// internal/machine/equiv): every experiment must render byte-identical
// output with interval batching on and off, serially and across eight
// workers. The batched path elides only provably no-op work, so any
// divergence here is a correctness bug in the interval engine, not a
// tolerance question.
//
// By default the test covers a subset that spans the engine's fan-out
// shapes plus the cluster and chaos arms; HOLMES_EQUIV_FULL=1 (set by the
// CI batch-equiv job) runs the entire registry. On failure, if
// HOLMES_EQUIV_DIFF_DIR is set, the mismatched renderings are written
// there so CI can upload them as an artifact.
//
// The serial batching-off reference is also checked against the committed
// per-experiment digests in testdata/golden.json, so a change that shifts
// every configuration alike still fails. `make golden` regenerates the
// digests (HOLMES_GOLDEN_UPDATE=1 over the full registry) and skips the
// variant runs.
func TestRegistryBatchingEquivalence(t *testing.T) {
	prev := machine.DefaultIntervalBatching()
	defer machine.SetDefaultIntervalBatching(prev)

	ids := []string{"fig2", "fig11", "cluster", "chaos", "traffic", "storm", "scale"}
	if os.Getenv("HOLMES_EQUIV_FULL") != "" {
		ids = IDs()
	} else if testing.Short() {
		ids = []string{"fig2", "chaos"}
	}
	base := Options{Seed: 7, Scale: 0.05}

	run := func(batching bool, parallel int) []string {
		t.Helper()
		machine.SetDefaultIntervalBatching(batching)
		o := base
		o.Parallel = parallel
		out, err := RunIDs(o, ids)
		if err != nil {
			t.Fatalf("batching=%v parallel=%d: %v", batching, parallel, err)
		}
		return out
	}

	ref := run(false, 1)
	for i, id := range ids {
		golden.Check(t, "testdata/golden.json", id, ref[i])
	}
	if golden.Updating() {
		return
	}
	variants := []struct {
		name     string
		batching bool
		parallel int
	}{
		{"off-parallel8", false, 8},
		{"on-parallel1", true, 1},
		{"on-parallel8", true, 8},
	}
	for _, v := range variants {
		got := run(v.batching, v.parallel)
		for i, id := range ids {
			if got[i] == ref[i] {
				continue
			}
			t.Errorf("%s: output differs from batching-off serial reference under %s (ref %d bytes, got %d bytes)",
				id, v.name, len(ref[i]), len(got[i]))
			saveEquivDiff(t, id, v.name, ref[i], got[i])
		}
	}
}

// saveEquivDiff writes the reference and divergent renderings to
// HOLMES_EQUIV_DIFF_DIR (if set) for CI artifact upload.
func saveEquivDiff(t *testing.T, id, variant, ref, got string) {
	t.Helper()
	dir := os.Getenv("HOLMES_EQUIV_DIFF_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("equiv diff dir: %v", err)
		return
	}
	for name, body := range map[string]string{
		fmt.Sprintf("%s.ref.txt", id):             ref,
		fmt.Sprintf("%s.%s.got.txt", id, variant): got,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Logf("equiv diff write: %v", err)
		}
	}
}
