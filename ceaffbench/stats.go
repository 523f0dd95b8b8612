package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank q-quantile of xs (which it sorts in place):
// the smallest value with at least q of the samples at or below it. 0 for
// an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// counts is the sent/ok/failed tally of one phase.
type counts struct {
	Sent   int `json:"sent"`
	OK     int `json:"ok"`
	Failed int `json:"failed"`
}

func tally(recs []record, phase int) counts {
	var c counts
	for i := range recs {
		if recs[i].phase != phase {
			continue
		}
		c.Sent++
		if recs[i].failed {
			c.Failed++
		} else {
			c.OK++
		}
	}
	return c
}

// readLatencies returns the latencies (ms, from the due time) of the reads
// of phase that succeeded.
func readLatencies(recs []record, phase int) []float64 {
	var out []float64
	for i := range recs {
		if r := &recs[i]; r.phase == phase && r.op.read() && !r.failed {
			out = append(out, r.latencyMs())
		}
	}
	return out
}

// sloFrac is the share of the reads sent in phase that succeeded within
// limitMs of their due time. A read that failed or was refused is a miss.
func sloFrac(recs []record, phase int, limitMs float64) float64 {
	sent, met := 0, 0
	for i := range recs {
		r := &recs[i]
		if r.phase != phase || !r.op.read() {
			continue
		}
		sent++
		if !r.failed && r.latencyMs() <= limitMs {
			met++
		}
	}
	if sent == 0 {
		return 0
	}
	return float64(met) / float64(sent)
}

// capacityWindow is the slice of the closed-loop phase one throughput
// sample covers; the reported capacity is the median over the samples, so
// one stalled moment on a shared machine does not move it.
const capacityWindow = 250 * time.Millisecond

// capacity is the median over capacityWindow-long slices of the capacity
// phase (starting at start, ns since the epoch) of successful reads
// completed per second. Only whole slices count.
func capacity(recs []record, start int64) float64 {
	var end int64
	for i := range recs {
		if recs[i].phase == phaseCapacity {
			end = max(end, recs[i].done)
		}
	}
	n := int((end - start) / int64(capacityWindow))
	if n < 1 {
		return 0
	}
	per := make([]float64, n)
	for i := range recs {
		r := &recs[i]
		if r.phase != phaseCapacity || !r.op.read() || r.failed {
			continue
		}
		if k := int((r.done - start) / int64(capacityWindow)); k < n {
			per[k]++
		}
	}
	for k := range per {
		per[k] /= capacityWindow.Seconds()
	}
	return median(per)
}

// observation is one moment at which the client saw the served engine
// version: a response header or a /readyz poll.
type observation struct {
	at      int64
	version uint64
}

// visibility returns, for every acknowledged write, the seconds from its
// send to the first later observation at an engine version covering it.
// Writes never observed are returned in unseen.
func visibility(recs []record, obs []observation) (delays []float64, unseen []*record) {
	sort.Slice(obs, func(a, b int) bool { return obs[a].at < obs[b].at })
	for i := range recs {
		w := &recs[i]
		if w.op.kind != opMutate || w.seq == 0 {
			continue
		}
		k := sort.Search(len(obs), func(j int) bool { return obs[j].at >= w.sent })
		found := false
		for ; k < len(obs); k++ {
			if obs[k].version >= w.seq {
				delays = append(delays, float64(obs[k].at-w.sent)/1e9)
				found = true
				break
			}
		}
		if !found {
			unseen = append(unseen, w)
		}
	}
	return delays, unseen
}
