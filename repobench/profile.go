package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modulePrefix marks the repository's own packages in profile frames.
const modulePrefix = "holmes-colocation/holmes/internal/"

// layerModules maps each reported layer to the internal/<module> packages
// folded into it. The Holmes daemon's layer includes the counter sampling
// (perf) and the hardware-event model (hpe) it drives.
var layerModules = map[string][]string{
	"machine":   {"machine"},
	"kernel":    {"kernel"},
	"core":      {"core", "perf", "hpe"},
	"kvstore":   {"kvstore"},
	"ycsb":      {"ycsb"},
	"cluster":   {"cluster"},
	"traffic":   {"traffic"},
	"lcservice": {"lcservice"},
}

// gcFrames are the runtime functions whose presence on a stack marks a
// sample as garbage-collector work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination",
}

const (
	runnerPrefix = modulePrefix + "runner."
	preloadFrame = modulePrefix + "lcservice.(*Service).Load"
)

// fold is a CPU profile reduced to the benchmark's per-layer sums. Each
// sample's CPU time goes to the innermost frame that belongs to an
// internal/<module> package, so standard-library and runtime work is
// charged to the module that called it; samples with no such frame (the
// GC workers, the scheduler, the benchmark itself) go to "other".
type fold struct {
	samples  int64
	totalNs  int64
	module   map[string]int64 // CPU ns by innermost internal module
	gcNs     int64            // stacks holding a gcFrames function
	runnerNs int64            // stacks under internal/runner (the node advance)
	serialNs int64            // neither runner nor GC work
	loadNs   int64            // stacks under lcservice.(*Service).Load
}

// foldProfile decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, and folds it.
func foldProfile(data []byte) (*fold, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	f := &fold{module: map[string]int64{}}
	for _, s := range p.samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile sample lacks a cpu/nanoseconds value")
		}
		n, ns := s.values[0], s.values[1]
		f.samples += n
		f.totalNs += ns
		var mod string
		var gc, runner, load bool
		for _, locID := range s.locs {
			for _, fn := range p.locFuncs[locID] {
				name := p.funcName(fn)
				if mod == "" {
					mod = moduleOf(name)
				}
				runner = runner || strings.Contains(name, runnerPrefix)
				load = load || strings.HasSuffix(name, preloadFrame)
				for _, g := range gcFrames {
					gc = gc || name == g
				}
			}
		}
		if mod == "" {
			mod = "other"
		}
		f.module[mod] += ns
		if gc {
			f.gcNs += ns
		}
		if runner {
			f.runnerNs += ns
		}
		if !gc && !runner {
			f.serialNs += ns
		}
		if load {
			f.loadNs += ns
		}
	}
	return f, nil
}

// moduleOf returns the internal/<module> a function belongs to, or "".
func moduleOf(fn string) string {
	i := strings.Index(fn, modulePrefix)
	if i < 0 {
		return ""
	}
	rest := fn[i+len(modulePrefix):]
	if j := strings.IndexAny(rest, "./"); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// addLayers writes the profile-derived per-layer metrics into l. wallS is
// the profiled run's wall time.
func (f *fold) addLayers(l map[string]float64, wallS float64) {
	frac := func(ns int64) float64 {
		if f.totalNs == 0 {
			return 0
		}
		return float64(ns) / float64(f.totalNs)
	}
	for layer, mods := range layerModules {
		var ns int64
		for _, m := range mods {
			ns += f.module[m]
		}
		l[layer+".host_frac"] = frac(ns)
	}
	l["go.gc_frac"] = frac(f.gcNs)
	l["lcservice.preload_s"] = float64(f.loadNs) / 1e9
	l["profile.samples"] = float64(f.samples)
	l["runner.cpu_per_wall"] = cpuPerWall(f.runnerNs, f.serialNs, wallS)
}

// cpuPerWall estimates how many CPUs the parallel node advance kept busy:
// its CPU time over its wall time, where the advance's wall time is the
// run's wall time less the serial work, which runs on one CPU and never
// overlaps the advance. Zero when the run has no parallel advance.
func cpuPerWall(parallelNs, serialNs int64, wallS float64) float64 {
	advance := wallS - float64(serialNs)/1e9
	if parallelNs == 0 || advance <= 0 {
		return 0
	}
	return float64(parallelNs) / 1e9 / advance
}

// profile is the subset of a pprof profile the fold needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcs    map[uint64]int64    // function ID -> name string index
	strings  []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) funcName(id uint64) string {
	i := p.funcs[id]
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of perftools.profiles.Profile and its messages.
const (
	fieldSample   = 2
	fieldLocation = 4
	fieldFunction = 5
	fieldString   = 6

	fieldSampleLoc   = 1
	fieldSampleValue = 2
	fieldLocID       = 1
	fieldLocLine     = 4
	fieldLineFunc    = 1
	fieldFuncID      = 1
	fieldFuncName    = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := walkFields(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case fieldSample:
			var s profSample
			err := walkFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case fieldSampleLoc:
					return appendInts(&s.locs, v, m)
				case fieldSampleValue:
					var vs []uint64
					if err := appendInts(&vs, v, m); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fieldLocation:
			var id uint64
			var fns []uint64
			err := walkFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case fieldLocID:
					id = v
				case fieldLocLine:
					return walkFields(m, func(f int, v uint64, _ []byte) error {
						if f == fieldLineFunc {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case fieldFunction:
			var id uint64
			var name int64
			err := walkFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case fieldFuncID:
					id = v
				case fieldFuncName:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case fieldString:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendInts appends a repeated integer field, packed (msg != nil) or not.
func appendInts(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// walkFields calls fn for every field of a protobuf message: varints
// arrive in v, length-delimited fields in msg (non-nil, possibly empty).
// Fixed-width fields are skipped.
func walkFields(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}
