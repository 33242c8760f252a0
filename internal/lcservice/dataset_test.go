package lcservice

import (
	"bytes"
	"testing"

	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// TestStoresKeepDatasetImmutable checks kvstore.Store's value contract on
// every store: two stores loaded from one generator share its record
// buffers, and a mixed stream of reads, updates, read-modify-writes,
// inserts and scans (on the stores that scan) through memtable flushes,
// compactions and checkpoints never writes into any of them.
func TestStoresKeepDatasetImmutable(t *testing.T) {
	mixed := ycsb.Workload{
		Name:     "mixed",
		ReadProp: 0.2, UpdateProp: 0.3, RMWProp: 0.2, InsertProp: 0.1, ScanProp: 0.2,
		Distribution: "zipfian", MaxScanLength: 20,
	}
	cfg := ycsb.DefaultConfig(mixed)
	// 1 KB records: the load alone fills RocksDB's 4 MB memtable.
	cfg.RecordCount = 5000
	cfg.Seed = 11
	for _, store := range StoreNames() {
		gen := ycsb.NewGenerator(cfg)
		var svcs []*Service
		for i := uint64(0); i < 2; i++ {
			_, k := newEnv()
			svc, err := LaunchStore(k, store, i+1, gen)
			if err != nil {
				t.Fatalf("%s: %v", store, err)
			}
			svcs = append(svcs, svc)
		}
		a := svcs[0].Store().Read(ycsb.Key(3)).Value
		b := svcs[1].Store().Read(ycsb.Key(3)).Value
		if len(a) == 0 || &a[0] != &b[0] {
			t.Fatalf("%s: two stores loaded from one generator hold separate copies of a record", store)
		}
		for _, svc := range svcs {
			for i := 0; i < 8000; i++ {
				svc.Submit(gen.Next(), 0)
			}
		}
		oracle := ycsb.NewGenerator(cfg) // never loaded: builds every value afresh
		for i := int64(0); i < cfg.RecordCount; i++ {
			if !bytes.Equal(gen.Value(i), oracle.Value(i)) {
				t.Fatalf("%s: dataset record %d was written through a store", store, i)
			}
		}
	}
}
