package main

import (
	"sort"
	"strings"
	"time"

	"ceaff/internal/obs"
)

// perLayer lists the traced run's metrics in report order, with units.
// Every one is reported on every workload; a layer a workload never runs
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"gen.send_lag_p99_ms", "ms"},
	{"gen.conn_wait_p99_ms", "ms"},
	{"trace.overhead_p50_ms", "ms"},
	{"boot.generate_s", "s"},
	{"boot.features_s", "s"},
	{"boot.decide_s", "s"},
	{"boot.engine_s", "s"},
	{"boot.blocking_s", "s"},
	{"blocking.cands_per_src", "count"},
	{"blocking.recall", "fraction"},
	{"boot.blocked_features_s", "s"},
	{"boot.blocked_decide_s", "s"},
	{"fleet.replica_boot_max_s", "s"},
	{"fleet.router_connect_s", "s"},
	{"http.handler_p50_s", "s"},
	{"http.handler_p99_s", "s"},
	{"server.self_s", "s"},
	{"server.alloc_bytes_per_req", "bytes"},
	{"go.gc_cpu_frac", "fraction"},
	{"admission.wait_p95_s", "s"},
	{"admission.shed", "count"},
	{"cache.hit_ratio", "fraction"},
	{"cache.group_hit_ratio", "fraction"},
	{"cache.evictions", "count"},
	{"coalesce.wait_s", "s"},
	{"coalesce.groups_per_call", "count"},
	{"coalesce.rows_per_call", "count"},
	{"aligner.call_p50_s", "s"},
	{"aligner.call_p99_s", "s"},
	{"router.decide_s", "s"},
	{"router.fanout", "count"},
	{"transport.gather_p50_s", "s"},
	{"transport.gather_p99_s", "s"},
	{"transport.straggler_s", "s"},
	{"transport.self_s", "s"},
	{"wire.req_bytes", "bytes"},
	{"wire.resp_bytes", "bytes"},
	{"replica.shard_s", "s"},
	{"wire.overhead_s", "s"},
	{"router.hedge_rate", "fraction"},
	{"router.hedge_win_ratio", "fraction"},
	{"router.retries", "count"},
	{"mutate.call_s", "s"},
	{"rebuild.build_s", "s"},
	{"rebuild.mutations_per_build", "count"},
	{"swap.count", "count"},
	{"write.ack_p50_ms", "ms"},
	{"write.ack_p90_ms", "ms"},
	{"write.visible_p50_s", "s"},
	{"write.visible_p90_s", "s"},
}

// window is the traced measure phase as Unix nanoseconds.
type window struct{ start, end int64 }

func (w window) holds(s *spanRec) bool { return s.Start >= w.start && s.Start < w.end }

func spansOf(d *traceDump, win window, kinds ...string) []*spanRec {
	var out []*spanRec
	for i := range d.Spans {
		s := &d.Spans[i]
		if !win.holds(s) {
			continue
		}
		for _, k := range kinds {
			if s.Kind == k {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

func durs(spans []*spanRec) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

func counterDelta(a, b obs.RegistrySnapshot, name string) float64 {
	return float64(b.Counters[name] - a.Counters[name])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerInputs is what the traced run collected besides the records.
type layerInputs struct {
	w       *workload
	recs    []record
	measure window
	// dumps[i] is procs[i]'s trace; the serving process is last.
	dumps []traceDump
	ready []time.Duration
	// before/after bracket the measure phase on the serving process.
	before, after obs.RegistrySnapshot
	writes        writeStats
}

// layerMetrics derives every per-layer metric. Spans and counter deltas
// come from the measure phase alone; the allocation, GC and admission
// figures cover the traced window, which adds the capacity phase.
func layerMetrics(li layerInputs) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	main := &li.dumps[len(li.dumps)-1]

	var lag, wait []float64
	multi := 0.0
	for i := range li.recs {
		r := &li.recs[i]
		if r.phase != phaseMeasure {
			continue
		}
		lag = append(lag, float64(r.queued-r.due)/1e6)
		wait = append(wait, float64(r.sent-r.queued)/1e6)
		if r.op.kind == opAlign && len(r.op.rows) > 1 {
			multi++
		}
	}
	m["gen.send_lag_p99_ms"] = percentile(lag, 0.99)
	m["gen.conn_wait_p99_ms"] = percentile(wait, 0.99)
	m["trace.overhead_p50_ms"] = median(readLatencies(li.recs, phaseMeasure)) - median(readLatencies(li.recs, phaseUntraced))

	// Boot stages: the slowest engine-building process bounds set-up.
	for i := range li.dumps {
		for k, v := range li.dumps[i].Boot {
			if v > m[k] {
				m[k] = v
			}
		}
	}
	if li.w.replicas > 0 {
		for _, r := range li.ready[:li.w.replicas] {
			m["fleet.replica_boot_max_s"] = max(m["fleet.replica_boot_max_s"], r.Seconds())
		}
	}

	handlers := spansOf(main, li.measure, "http.align", "http.cand", "http.mutate")
	hd := durs(handlers)
	m["http.handler_p50_s"] = percentile(hd, 0.5)
	m["http.handler_p99_s"] = percentile(hd, 0.99)
	m["server.self_s"], m["coalesce.wait_s"] = selfAndWait(main, li.measure, handlers)
	allTraced := 0
	for i := range main.Spans {
		if strings.HasPrefix(main.Spans[i].Kind, "http.") {
			allTraced++
		}
	}
	m["server.alloc_bytes_per_req"] = ratio(main.AllocBytes, float64(allTraced))
	m["go.gc_cpu_frac"] = main.GCCPUFrac

	m["admission.wait_p95_s"] = main.Metrics.Histograms["serve.queue.seconds"].P95
	m["admission.shed"] = counterDelta(li.before, main.Metrics, "serve.shed")

	hits := counterDelta(li.before, li.after, "serve.cache.hits")
	misses := counterDelta(li.before, li.after, "serve.cache.misses")
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.group_hit_ratio"] = ratio(counterDelta(li.before, li.after, "serve.cache.group_hits"), multi)
	m["cache.evictions"] = counterDelta(li.before, li.after, "serve.cache.evictions")

	calls := spansOf(main, li.measure, "call.align")
	var groups, rows []float64
	for _, c := range calls {
		groups = append(groups, float64(len(c.Groups)))
		n := 0
		for _, g := range c.Groups {
			n += len(g)
		}
		rows = append(rows, float64(n))
	}
	m["coalesce.groups_per_call"] = mean(groups)
	m["coalesce.rows_per_call"] = mean(rows)
	cd := durs(calls)
	m["aligner.call_p50_s"] = percentile(cd, 0.5)
	m["aligner.call_p99_s"] = percentile(cd, 0.99)

	routerLayers(m, main, li.measure, li.before, li.after)

	m["mutate.call_s"] = median(durs(spansOf(main, li.measure, "mutate")))
	m["rebuild.build_s"] = median(durs(spansOf(main, li.measure, "build")))
	m["rebuild.mutations_per_build"] = ratio(counterDelta(li.before, li.after, "serve.mutations.applied"),
		counterDelta(li.before, li.after, "serve.rebuilds"))
	m["swap.count"] = counterDelta(li.before, li.after, "serve.engine.swaps")

	m["write.ack_p50_ms"] = li.writes.ackP50Ms
	m["write.ack_p90_ms"] = li.writes.ackP90Ms
	m["write.visible_p50_s"] = li.writes.visibleP50S
	m["write.visible_p90_s"] = li.writes.visibleP90S
	return m
}

// selfAndWait links each handler span to the aligner (or mutator) call
// that served it — by rows, since a coalesced call runs on its own
// goroutine — and returns the mean handler self time (handler minus the
// serving call and, for an align, its coalesce wait) and the median
// coalesce wait (handler start to the start of the serving align call,
// which also holds the microseconds of decode and admission before it).
// Cache hits have no serving call; their whole handler time is self time.
func selfAndWait(d *traceDump, win window, handlers []*spanRec) (self, wait float64) {
	byKey := map[string][]*spanRec{}
	for i := range d.Spans {
		s := &d.Spans[i]
		switch s.Kind {
		case "call.align":
			for _, g := range s.Groups {
				k := "align:" + joinInts(g)
				byKey[k] = append(byKey[k], s)
			}
		case "call.cand":
			k := "cand:" + joinInts(s.Rows)
			byKey[k] = append(byKey[k], s)
		case "mutate":
			byKey["mutate"] = append(byKey["mutate"], s)
		}
	}
	for _, list := range byKey {
		sort.Slice(list, func(a, b int) bool { return list[a].Start < list[b].Start })
	}
	var selfs, waits []float64
	for _, h := range handlers {
		var key string
		switch h.Kind {
		case "http.align":
			key = "align:" + joinInts(h.Rows)
		case "http.cand":
			key = "cand:" + joinInts(h.Rows)
		default:
			key = "mutate"
		}
		list := byKey[key]
		k := sort.Search(len(list), func(i int) bool { return list[i].Start >= h.Start })
		covered := 0.0
		if k < len(list) && list[k].End <= h.End {
			c := list[k]
			covered = c.dur()
			if h.Kind == "http.align" {
				// The wait is the coalescer's time, not the server's.
				wait := float64(c.Start-h.Start) / 1e9
				waits = append(waits, wait)
				covered += wait
			}
		}
		selfs = append(selfs, h.dur()-covered)
	}
	return mean(selfs), median(waits)
}

// routerLayers fills the router, transport and wire metrics from the
// router's gather and wire spans and its replica counters.
func routerLayers(m map[string]float64, d *traceDump, win window, before, after obs.RegistrySnapshot) {
	gathers := spansOf(d, win, "gather")
	if len(gathers) == 0 {
		return
	}
	byCall := map[uint64][]*spanRec{}
	for _, g := range gathers {
		byCall[g.Parent] = append(byCall[g.Parent], g)
	}
	var fanout, straggle, decide []float64
	for _, gs := range byCall {
		fanout = append(fanout, float64(len(gs)))
		lo, hi := gs[0].dur(), gs[0].dur()
		for _, g := range gs[1:] {
			lo, hi = min(lo, g.dur()), max(hi, g.dur())
		}
		if len(gs) > 1 {
			straggle = append(straggle, hi-lo)
		}
	}
	for _, c := range spansOf(d, win, "call.align") {
		if gs := byCall[c.ID]; len(gs) > 0 {
			slowest := 0.0
			for _, g := range gs {
				slowest = max(slowest, g.dur())
			}
			decide = append(decide, c.dur()-slowest)
		}
	}
	m["router.fanout"] = mean(fanout)
	gd := durs(gathers)
	m["transport.gather_p50_s"] = percentile(gd, 0.5)
	m["transport.gather_p99_s"] = percentile(gd, 0.99)
	m["transport.straggler_s"] = median(straggle)
	m["router.decide_s"] = median(decide)

	var reqB, respB, shard, overhead []float64
	onWire := map[uint64]float64{}
	for _, s := range spansOf(d, win, "wire") {
		onWire[s.Parent] += s.dur()
		if s.Err {
			continue
		}
		reqB = append(reqB, float64(s.ReqBytes))
		respB = append(respB, float64(s.RespBytes))
		shard = append(shard, float64(s.ShardNs)/1e9)
		overhead = append(overhead, s.dur()-float64(s.ShardNs)/1e9)
	}
	// A gather's self time is what the transport adds around its round
	// trips: encoding, decoding and checking the frame.
	var gatherSelf []float64
	for _, g := range gathers {
		gatherSelf = append(gatherSelf, g.dur()-onWire[g.ID])
	}
	m["transport.self_s"] = median(gatherSelf)
	m["wire.req_bytes"] = mean(reqB)
	m["wire.resp_bytes"] = mean(respB)
	m["replica.shard_s"] = median(shard)
	m["wire.overhead_s"] = median(overhead)

	hedges := counterDelta(before, after, "serve.replica.hedges")
	total := float64(after.Histograms["serve.gather.seconds"].Count - before.Histograms["serve.gather.seconds"].Count)
	m["router.hedge_rate"] = ratio(hedges, total)
	m["router.hedge_win_ratio"] = ratio(counterDelta(before, after, "serve.replica.hedge_wins"), hedges)
	m["router.retries"] = counterDelta(before, after, "serve.replica.retries")
}
