package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"vectorliterag/internal/dataset"
	"vectorliterag/internal/rng"
	"vectorliterag/internal/vecmath"
	"vectorliterag/internal/workload"
)

// recallFloor is the lowest recall@10 a built index may reach at the
// workload's own probe width before the build counts as failed.
const recallFloor = 0.9

// recallQueries is how many sampled queries the recall check scores.
const recallQueries = 128

// checkConservation verifies arrived = served + unserved + rejected over
// one run. arrived is the collector's admitted count and rejected the
// admission scheduler's counter; served and unserved come from the
// per-request records, each of which must appear exactly once.
func checkConservation(recs []workload.Request, arrived, rejected int) error {
	if len(recs) != arrived {
		return fmt.Errorf("conservation: %d records for %d arrivals", len(recs), arrived)
	}
	seen := make(map[[2]int]struct{}, len(recs))
	served := 0
	for i := range recs {
		key := [2]int{recs[i].Tenant, recs[i].ID}
		if _, dup := seen[key]; dup {
			return fmt.Errorf("conservation: request %d of tenant %d recorded twice", recs[i].ID, recs[i].Tenant)
		}
		seen[key] = struct{}{}
		if recs[i].FirstToken > 0 {
			served++
		}
	}
	unserved := arrived - served - rejected
	if unserved < 0 {
		return fmt.Errorf("conservation: arrived %d < served %d + rejected %d", arrived, served, rejected)
	}
	return nil
}

// checkOrder verifies the lifecycle order of every served record:
// arrival ≤ search start ≤ search done ≤ LLM start ≤ first token ≤ done
// (done is still zero for a request decoding at the horizon).
func checkOrder(recs []workload.Request) error {
	for i := range recs {
		r := &recs[i]
		if r.FirstToken == 0 {
			continue
		}
		if r.ArrivalAt > r.SearchStart || r.SearchStart > r.SearchDone ||
			r.SearchDone > r.LLMStart || r.LLMStart > r.FirstToken ||
			(r.Done != 0 && r.FirstToken > r.Done) {
			return fmt.Errorf("lifecycle: request %d of tenant %d out of order: arrival %d search %d..%d llm %d first %d done %d",
				r.ID, r.Tenant, r.ArrivalAt, r.SearchStart, r.SearchDone, r.LLMStart, r.FirstToken, r.Done)
		}
	}
	return nil
}

// checkRecords runs both record checks.
func checkRecords(recs []workload.Request, arrived, rejected int) error {
	if err := checkConservation(recs, arrived, rejected); err != nil {
		return err
	}
	return checkOrder(recs)
}

// probeRecall is the corpus index's recall@10 at the workload's probe
// width: the share of each sampled query's exact 10 nearest neighbours
// that lie in the clusters the index probes for it. The serving
// simulation prices every search from those probe lists, so this is the
// index quality it depends on.
func probeRecall(w *dataset.Workload, seed uint64) float64 {
	ix := w.Index
	clusterOf := make([]int, ix.NVectors())
	for c := 0; c < ix.NList(); c++ {
		for _, id := range ix.ClusterIDs(c) {
			clusterOf[id] = c
		}
	}
	bf := vecmath.NewBruteForcer(w.Data, ix.Dim())
	probed := make([]bool, ix.NList())
	r := rng.New(seed)
	var truth []vecmath.Neighbor
	hits := 0
	for _, q := range w.SampleMany(r, recallQueries) {
		v := w.QueryVector(q, r)
		clear(probed)
		for _, c := range ix.Probe(v, w.Gen.PhysNProbe) {
			probed[c] = true
		}
		truth = bf.AppendTopK(truth[:0], v, 10)
		for _, nb := range truth {
			if probed[clusterOf[nb.Index]] {
				hits++
			}
		}
	}
	return float64(hits) / float64(10*recallQueries)
}

// digest hashes every simulated statistic of a run: each request's
// lifecycle record plus the run-level values the workload reports.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digest) records(recs []workload.Request) {
	for i := range recs {
		r := &recs[i]
		d.int(int64(r.ID))
		d.int(int64(r.Tenant))
		d.int(int64(r.Query))
		d.int(int64(r.Shape.InputTokens))
		d.int(int64(r.Shape.TopK))
		d.int(int64(r.ArrivalAt))
		d.int(int64(r.SearchStart))
		d.int(int64(r.SearchDone))
		d.int(int64(r.LLMStart))
		d.int(int64(r.FirstToken))
		d.int(int64(r.Done))
		d.float(r.Degrade)
		d.float(r.KShed)
		d.float(r.HitRate)
		if r.ForcePQ {
			d.int(1)
		} else {
			d.int(0)
		}
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
