package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// pb is a minimal protobuf writer for building synthetic profiles.
type pb []byte

func (b pb) key(field, wire int) pb { return binary.AppendUvarint(b, uint64(field<<3|wire)) }

func (b pb) varint(field int, v uint64) pb { return binary.AppendUvarint(b.key(field, 0), v) }

func (b pb) bytes(field int, msg []byte) pb {
	b = binary.AppendUvarint(b.key(field, 2), uint64(len(msg)))
	return append(b, msg...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return b.bytes(field, body)
}

// synthProfile builds a gzipped profile. Each stack lists function names
// leaf first; a name containing "|" is one location holding inlined
// frames, innermost first. Each sample has count 1 and 10ms of CPU.
func synthProfile(t *testing.T, stacks [][]string) []byte {
	t.Helper()
	var prof pb
	strs := []string{""}
	funcs := map[string]uint64{}
	fn := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		strs = append(strs, name)
		prof = prof.bytes(fieldFunction, pb(nil).varint(fieldFuncID, id).varint(fieldFuncName, uint64(len(strs)-1)))
		return id
	}
	locID := uint64(0)
	for i, stack := range stacks {
		var locs []uint64
		for _, frame := range stack {
			locID++
			loc := pb(nil).varint(fieldLocID, locID).varint(2, 7) // mapping_id is skipped
			for _, name := range bytes.Split([]byte(frame), []byte("|")) {
				loc = loc.bytes(fieldLocLine, pb(nil).varint(fieldLineFunc, fn(string(name))).varint(2, 42))
			}
			prof = prof.bytes(fieldLocation, loc)
			locs = append(locs, locID)
		}
		s := pb(nil)
		if i%2 == 0 {
			s = s.packed(fieldSampleLoc, locs...).packed(fieldSampleValue, 1, 10_000_000)
		} else { // unpacked repeated fields are legal too
			for _, l := range locs {
				s = s.varint(fieldSampleLoc, l)
			}
			s = s.varint(fieldSampleValue, 1).varint(fieldSampleValue, 10_000_000)
		}
		prof = prof.bytes(fieldSample, s)
	}
	for _, str := range strs {
		prof = prof.bytes(fieldString, []byte(str))
	}
	prof = append(prof.key(12, 1), make([]byte, 8)...) // a fixed64 field is skipped
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const (
	internalPkg = "github.com/holmes-colocation/holmes/internal/"
	runnerFrame = internalPkg + "runner.Run.func1"
)

func TestFoldProfile(t *testing.T) {
	data := synthProfile(t, [][]string{
		// Machine tick under the parallel node advance.
		{internalPkg + "machine.(*Machine).step", internalPkg + "cluster.(*Node).Advance", runnerFrame},
		// Runtime work is charged to the innermost internal caller.
		{"runtime.memmove", internalPkg + "kvstore/redis.(*Store).Insert", internalPkg + "lcservice.(*Service).Load", "main.main"},
		// An inlined ycsb frame inside a runtime location.
		{"runtime.mallocgc|" + internalPkg + "ycsb.(*Generator).Value", internalPkg + "lcservice.(*Service).Load"},
		// perf and hpe fold into the daemon's layer.
		{internalPkg + "hpe.Derive", internalPkg + "core.(*Daemon).tick"},
		{internalPkg + "perf.(*Reader).Read"},
		// A GC assist inside the advance counts as GC and as advance.
		{"runtime.gcAssistAlloc", "runtime.mallocgc", internalPkg + "kernel.(*Kernel).Assign", runnerFrame},
		// Background GC and the benchmark itself have no internal frame.
		{"runtime.scanobject", "runtime.gcBgMarkWorker"},
		{"main.main"},
	})
	f, err := foldProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	const ms = 10_000_000
	if f.samples != 8 || f.totalNs != 8*ms {
		t.Fatalf("samples %d total %d, want 8 and %d", f.samples, f.totalNs, 8*ms)
	}
	wantMod := map[string]int64{"machine": ms, "kvstore": ms, "ycsb": ms, "hpe": ms, "perf": ms, "kernel": ms, "other": 2 * ms}
	for m, want := range wantMod {
		if f.module[m] != want {
			t.Errorf("module %s: %d ns, want %d", m, f.module[m], want)
		}
	}
	if f.gcNs != 2*ms || f.runnerNs != 2*ms || f.serialNs != 5*ms || f.loadNs != 2*ms {
		t.Errorf("gc %d runner %d serial %d load %d", f.gcNs, f.runnerNs, f.serialNs, f.loadNs)
	}

	l := map[string]float64{}
	f.addLayers(l, 0.07)
	for name, want := range map[string]float64{
		"machine.host_frac":   1.0 / 8,
		"core.host_frac":      2.0 / 8,
		"kvstore.host_frac":   1.0 / 8,
		"ycsb.host_frac":      1.0 / 8,
		"cluster.host_frac":   0,
		"go.gc_frac":          2.0 / 8,
		"lcservice.preload_s": 0.02,
		"profile.samples":     8,
		// 20ms of advance CPU over 70ms wall less 50ms serial.
		"runner.cpu_per_wall": 1,
	} {
		if math.Abs(l[name]-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, l[name], want)
		}
	}
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("folding a non-gzip input succeeded")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	_, _ = zw.Write([]byte{0x12, 0x05, 0x01}) // sample field longer than the data
	_ = zw.Close()
	if _, err := foldProfile(buf.Bytes()); err == nil {
		t.Error("folding a truncated profile succeeded")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		internalPkg + "kvstore/rocksdb.(*Store).Read": "kvstore",
		internalPkg + "machine.(*Machine).step":       "machine",
		internalPkg + "runner.Run.func1":              "runner",
		"runtime.mallocgc":                            "",
		"main.main":                                   "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUPerWall(t *testing.T) {
	if got := cpuPerWall(0, 1e9, 2); got != 0 {
		t.Errorf("no parallel work: %v, want 0", got)
	}
	if got := cpuPerWall(3e9, 1e9, 2.5); math.Abs(got-2) > 1e-12 {
		t.Errorf("3s advance CPU over 1.5s: %v, want 2", got)
	}
	if got := cpuPerWall(1e9, 3e9, 2); got != 0 {
		t.Errorf("serial work longer than the wall time: %v, want 0", got)
	}
}
