package traffic

import (
	"github.com/holmes-colocation/holmes/internal/rng"
	"github.com/holmes-colocation/holmes/internal/scenario"
	"github.com/holmes-colocation/holmes/internal/ycsb"
)

// OpGen turns a program's regional keyspace skew into concrete store
// operations. Each region owns a disjoint shard of the modeled user
// keyspace and draws keys from its own scrambled-Zipf stream, so
// different regions are hot on different keys; a drawn user index folds
// onto the replica's preloaded working set via user % records.
//
// The operation mix comes from the service's YCSB workload with scans
// folded into reads and inserts into updates: scans are unsupported on
// some stores (they would break request accounting) and inserts would
// diverge the replicas' keyspaces — the open-loop mix is read / update /
// read-modify-write only.
type OpGen struct {
	pick    *rng.Source
	regions []regionGen
	cum     []float64 // cumulative region weights, normalized
	records int64
	// Folded cumulative op-type thresholds.
	read, update float64
	vals         *ycsb.Generator
}

type regionGen struct {
	lo   int64
	zipf *rng.ScrambledZipf
}

// NewOpGen compiles the generator for one service; seed should derive
// from (run seed, service name) so replicas see one coherent stream.
func NewOpGen(prog scenario.TrafficProgram, svc scenario.ReplicatedService, seed uint64) (*OpGen, error) {
	vals, err := ycsb.New(svc.WorkloadName(), svc.Records(), rng.DeriveSeed(seed, "traffic-values"))
	if err != nil {
		return nil, err
	}
	wl := vals.Workload()
	g := &OpGen{
		pick:    rng.New(rng.DeriveSeed(seed, "traffic-pick")),
		records: svc.Records(),
		read:    wl.ReadProp + wl.ScanProp,
		update:  wl.UpdateProp + wl.InsertProp,
		vals:    vals,
	}

	regions := prog.EffectiveRegions()
	var total float64
	for _, r := range regions {
		total += r.Weight
	}
	var cum float64
	for _, r := range regions {
		lo := int64(r.Shard[0] * float64(prog.Users))
		hi := int64(r.Shard[1] * float64(prog.Users))
		if hi <= lo {
			hi = lo + 1
		}
		src := rng.New(rng.DeriveSeed(seed, "traffic-region", r.Name))
		g.regions = append(g.regions, regionGen{
			lo:   lo,
			zipf: rng.NewScrambledZipf(src, hi-lo, prog.Theta()),
		})
		cum += r.Weight / total
		g.cum = append(g.cum, cum)
	}
	return g, nil
}

// Next draws one operation: region by weight, key by the region's
// scrambled-Zipf stream folded onto the working set, type by the folded
// workload mix.
func (g *OpGen) Next() ycsb.Op {
	p := g.pick.Float64()
	ri := len(g.regions) - 1
	for i, c := range g.cum {
		if p < c {
			ri = i
			break
		}
	}
	reg := g.regions[ri]
	rec := (reg.lo + reg.zipf.Next()) % g.records
	q := g.pick.Float64()
	switch {
	case q < g.read:
		return ycsb.Op{Type: ycsb.OpRead, Key: ycsb.Key(rec)}
	case q < g.read+g.update:
		return ycsb.Op{Type: ycsb.OpUpdate, Key: ycsb.Key(rec), Value: g.vals.Value(rec + 7)}
	default:
		return ycsb.Op{Type: ycsb.OpReadModifyWrite, Key: ycsb.Key(rec), Value: g.vals.Value(rec + 13)}
	}
}
