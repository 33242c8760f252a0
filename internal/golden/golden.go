// Package golden pins simulated behaviour with committed digests. A test
// hashes a deterministic rendering and compares the SHA-256 with the
// entry stored under its key in a testdata JSON file (a flat object of
// key → hex digest). Comparing one run against another cannot catch a
// change that shifts every configuration the same way; a committed digest
// does.
//
// Setting HOLMES_GOLDEN_UPDATE=1 rewrites the entries instead of
// comparing them; `make golden` regenerates every golden file that way.
// A digest change must be a deliberate, documented behaviour change.
package golden

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"testing"
)

// Updating reports whether the test run regenerates golden files.
func Updating() bool { return os.Getenv("HOLMES_GOLDEN_UPDATE") != "" }

// Digest returns the hex SHA-256 of s.
func Digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// Check compares the digest of got with the entry for key in the golden
// file at path, or records it there when Updating.
func Check(t testing.TB, path, key, got string) {
	t.Helper()
	want, err := read(path)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	d := Digest(got)
	if Updating() {
		want[key] = d
		if err := write(path, want); err != nil {
			t.Fatalf("golden: %v", err)
		}
		return
	}
	w, ok := want[key]
	switch {
	case !ok:
		t.Errorf("golden: %s has no entry for %q (run `make golden`)", path, key)
	case w != d:
		t.Errorf("golden: %s digest %s, %s pins %s — simulated behaviour changed", key, d, path, w)
	}
}

func read(path string) (map[string]string, error) {
	m := map[string]string{}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) && Updating() {
		return m, nil
	}
	if err != nil {
		return nil, err
	}
	return m, json.Unmarshal(b, &m)
}

func write(path string, m map[string]string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
