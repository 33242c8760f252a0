package ycsb

import (
	"bytes"
	"testing"
)

// refValue is the reference record payload: the byte-at-a-time generator
// every record value was built with before datasets were tabled. Value
// must reproduce it exactly, loaded or not.
func refValue(cfg Config, i int64) []byte {
	n := cfg.FieldCount * cfg.FieldLength
	buf := make([]byte, n)
	seed := uint64(i)*0x9e3779b97f4a7c15 + cfg.Seed
	for j := 0; j < n; j += 8 {
		seed = seed*6364136223846793005 + 1442695040888963407
		w := seed
		for k := j; k < j+8 && k < n; k++ {
			buf[k] = 'a' + byte(w%26)
			w >>= 8
		}
	}
	return buf
}

func TestValueMatchesReference(t *testing.T) {
	shapes := []struct{ fields, length int }{
		{10, 100}, // the default 1 KB record
		{3, 7},    // 21 bytes: not a multiple of the 8-letter step
	}
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		for _, sh := range shapes {
			cfg := DefaultConfig(WorkloadA)
			cfg.RecordCount = 64
			cfg.FieldCount, cfg.FieldLength = sh.fields, sh.length
			cfg.Seed = seed
			loaded, unloaded := NewGenerator(cfg), NewGenerator(cfg)
			n := 0
			loaded.LoadOps(func(key string, value []byte) {
				if want := refValue(cfg, int64(n)); key != Key(int64(n)) || !bytes.Equal(value, want) {
					t.Fatalf("seed %d shape %v: load record %d (key %q) differs from the reference", seed, sh, n, key)
				}
				n++
			})
			// Past RecordCount (inserts, update offsets) on both; the
			// table range on both; and a negative index off the table.
			for i := int64(-1); i < cfg.RecordCount+20; i++ {
				want := refValue(cfg, i)
				if !bytes.Equal(loaded.Value(i), want) {
					t.Fatalf("seed %d shape %v: loaded Value(%d) differs from the reference", seed, sh, i)
				}
				if !bytes.Equal(unloaded.Value(i), want) {
					t.Fatalf("seed %d shape %v: unloaded Value(%d) differs from the reference", seed, sh, i)
				}
			}
		}
	}
}

// TestLoadedValueShared pins what the table buys: a loaded generator hands
// out one buffer per record, to a second load and to update operations
// alike, and builds nothing new for records inside the table.
func TestLoadedValueShared(t *testing.T) {
	cfg := DefaultConfig(WorkloadA)
	cfg.RecordCount = 100
	g := NewGenerator(cfg)
	var first, second [][]byte
	g.LoadOps(func(_ string, v []byte) { first = append(first, v) })
	g.LoadOps(func(_ string, v []byte) { second = append(second, v) })
	for i := range first {
		if &first[i][0] != &second[i][0] || &g.Value(int64(i))[0] != &first[i][0] {
			t.Fatalf("record %d: second load or Value got a fresh buffer", i)
		}
	}
	if &g.Value(cfg.RecordCount)[0] == &g.Value(cfg.RecordCount)[0] {
		t.Fatal("a record past the table was served from shared memory")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = g.Value(42) }); allocs != 0 {
		t.Fatalf("Value on a loaded generator allocates %v times, want 0", allocs)
	}
}

// TestNewNamedWorkload checks the named constructor's shape; its error
// cases run through lcservice's TestLaunchStore.
func TestNewNamedWorkload(t *testing.T) {
	g, err := New("e", 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(WorkloadE)
	cfg.RecordCount, cfg.Seed = 300, 9
	if g.Workload() != WorkloadE || g.RecordCount() != 300 || !bytes.Equal(g.Value(7), refValue(cfg, 7)) {
		t.Fatalf("New(e, 300, 9) = workload %s, %d records", g.Workload().Name, g.RecordCount())
	}
}
