package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"ceaff/internal/kg"
	"ceaff/internal/wal"
)

// workload is one topology plus one seeded traffic mix. Every field that
// shapes the system under test or its traffic lives here, so BENCHMARK.json's
// one-line reasons and this table describe the same runs.
type workload struct {
	name    string
	dataset string
	scale   float64
	// flags are extra ceaffd flags of the serving process (or, with
	// replicas > 0, of the router).
	flags []string
	// blocked builds the sparse candidate-first engine; wal enables
	// POST /v1/mutate with a fresh log per boot.
	blocked, wal bool
	// replicas > 0 boots that many `-replica -partition i/N` processes on
	// the same corpus behind one `-router`.
	replicas int

	rate      float64 // open-loop reads per second
	alignFrac float64 // share of reads that are /v1/align; the rest ask candidates
	batch     int     // sources per align
	zipf      float64 // Zipf exponent of the source keys; 0 draws them uniformly
	candK     int     // k of /v1/entity/{id}/candidates
	writeRate float64 // open-loop /v1/mutate per second
	sloMs     float64 // latency limit a read must meet to count toward slo_frac
	// prefill asks every source's align and candidates once before the
	// warm-up and before the capacity phase, so the reads that follow find
	// every key in the result cache.
	prefill bool
}

var workloads = []*workload{
	{
		name: "hot-single", dataset: "DBP100K DBP-WD*", scale: 0.3,
		rate: 500, alignFrac: 0.9, batch: 1, zipf: 1.1, candK: 10, sloMs: 5, prefill: true,
	},
	{
		name: "blocked-batch", dataset: "DBP1M DBP-WD*", scale: 0.01, blocked: true,
		flags: []string{"-cache-size", "1024"},
		rate:  200, alignFrac: 1, batch: 16, sloMs: 10,
	},
	{
		name: "router-fleet", dataset: "DBP100K DBP-WD*", scale: 0.3, replicas: 3,
		flags: []string{"-cache-size", "0"},
		rate:  100, alignFrac: 0.9, batch: 8, candK: 10, sloMs: 25,
	},
	{
		name: "read-write", dataset: "SRPRS EN-FR*", scale: 0.3, wal: true,
		rate: 200, alignFrac: 0.9, batch: 1, zipf: 1.1, candK: 10, writeRate: 0.5, sloMs: 10, prefill: true,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// corpusFlags are the flags every engine-building process of w shares.
func (w *workload) corpusFlags() []string {
	f := []string{"-fast", "-dataset", w.dataset, "-scale", strconv.FormatFloat(w.scale, 'g', -1, 64)}
	if w.blocked {
		f = append(f, "-blocked")
	}
	return f
}

type opKind uint8

const (
	opAlign opKind = iota
	opCandidates
	opMutate
)

// op is one generated request. Its key names the request for the oracle:
// equal keys must receive equal bytes from one engine version.
type op struct {
	kind opKind
	rows []int
	k    int
	mut  wal.Mutation
}

func (o *op) read() bool { return o.kind != opMutate }

func (o *op) key() string {
	switch o.kind {
	case opAlign:
		return "align:" + joinInts(o.rows)
	case opCandidates:
		return fmt.Sprintf("cand:%d:%d", o.rows[0], o.k)
	}
	return "mutate:" + o.mut.Head + "|" + o.mut.Rel + "|" + o.mut.Tail
}

// request builds the HTTP request for o against base (http://host:port).
// X-Bench-Rows carries the resolved rows so a traced daemon can link a
// request to the aligner call that served it without parsing its body;
// ceaffd ignores the header.
func (o *op) request(base string) (*http.Request, error) {
	var (
		req *http.Request
		err error
	)
	switch o.kind {
	case opAlign:
		var b strings.Builder
		b.WriteString(`{"sources":[`)
		for i, r := range o.rows {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`"` + strconv.Itoa(r) + `"`)
		}
		b.WriteString(`]}`)
		req, err = http.NewRequest(http.MethodPost, base+"/v1/align", strings.NewReader(b.String()))
	case opCandidates:
		req, err = http.NewRequest(http.MethodGet,
			fmt.Sprintf("%s/v1/entity/%d/candidates?k=%d", base, o.rows[0], o.k), nil)
	default:
		body := fmt.Sprintf(`{"mutations":[{"op":%q,"kg":%d,"head":%q,"rel":%q,"tail":%q}]}`,
			o.mut.Op, o.mut.KG, o.mut.Head, o.mut.Rel, o.mut.Tail)
		req, err = http.NewRequest(http.MethodPost, base+"/v1/mutate", strings.NewReader(body))
	}
	if err != nil {
		return nil, err
	}
	if o.kind != opMutate {
		req.Header.Set("X-Bench-Rows", joinInts(o.rows))
	}
	return req, nil
}

func joinInts(xs []int) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// keyStream draws w's read mix over n sources from one seeded RNG. Zipf
// ranks are mapped through a seeded permutation, so the hot set is spread
// over the source space instead of being rows 0, 1, 2, ...
type keyStream struct {
	w    *workload
	n    int
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
}

func newKeyStream(w *workload, n int, seed int64) *keyStream {
	rng := rand.New(rand.NewSource(seed))
	ks := &keyStream{w: w, n: n, rng: rng, perm: rng.Perm(n)}
	if w.zipf > 1 {
		ks.zipf = rand.NewZipf(rng, w.zipf, 1, uint64(n-1))
	}
	return ks
}

func (ks *keyStream) source() int {
	if ks.zipf != nil {
		return ks.perm[ks.zipf.Uint64()]
	}
	return ks.rng.Intn(ks.n)
}

// everyKey is each single-source read of w's mix over n sources, once.
func everyKey(w *workload, n int) []op {
	ops := make([]op, 0, 2*n)
	for r := 0; r < n; r++ {
		ops = append(ops, op{kind: opAlign, rows: []int{r}}, op{kind: opCandidates, rows: []int{r}, k: w.candK})
	}
	return ops
}

func (ks *keyStream) next() op {
	if ks.rng.Float64() >= ks.w.alignFrac {
		return op{kind: opCandidates, rows: []int{ks.source()}, k: ks.w.candK}
	}
	rows := make([]int, 0, ks.w.batch)
	seen := make(map[int]bool, ks.w.batch)
	for len(rows) < ks.w.batch {
		if r := ks.source(); !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	return op{kind: opAlign, rows: rows}
}

// mutationStream draws add_triple mutations between distinct existing
// source-KG entities over existing relations, never repeating a triple the
// graph or the stream already holds — every one is valid, so no write fails
// by construction.
type mutationStream struct {
	g    *kg.KG
	rng  *rand.Rand
	seen map[kg.Triple]bool
}

func newMutationStream(g *kg.KG, seed int64) *mutationStream {
	seen := make(map[kg.Triple]bool, len(g.Triples))
	for _, t := range g.Triples {
		seen[t] = true
	}
	return &mutationStream{g: g, rng: rand.New(rand.NewSource(seed)), seen: seen}
}

func (ms *mutationStream) next() op {
	n, nr := ms.g.NumEntities(), ms.g.NumRelations()
	for {
		t := kg.Triple{
			Head:     kg.EntityID(ms.rng.Intn(n)),
			Relation: kg.RelationID(ms.rng.Intn(nr)),
			Tail:     kg.EntityID(ms.rng.Intn(n)),
		}
		if t.Head == t.Tail || ms.seen[t] {
			continue
		}
		ms.seen[t] = true
		return op{kind: opMutate, mut: wal.Mutation{
			Op: wal.OpAddTriple, KG: 1,
			Head: ms.g.EntityName(t.Head), Rel: ms.g.RelationName(t.Relation), Tail: ms.g.EntityName(t.Tail),
		}}
	}
}

// scheduled is an op with its due time as an offset from the phase start.
type scheduled struct {
	op  op
	due float64 // seconds
}

// openSchedule lays out dur seconds of w's traffic at fixed spacing: reads
// at w.rate, writes (if any) at w.writeRate, merged by due time.
func openSchedule(w *workload, reads *keyStream, writes *mutationStream, dur float64) []scheduled {
	var out []scheduled
	for i := 0; float64(i) < dur*w.rate; i++ {
		out = append(out, scheduled{op: reads.next(), due: float64(i) / w.rate})
	}
	if writes != nil && w.writeRate > 0 {
		// Offset writes by half a read interval so they never share a tick.
		for i := 0; float64(i) < dur*w.writeRate; i++ {
			out = append(out, scheduled{op: writes.next(), due: (float64(i)+0.5)/w.writeRate + 0.5/w.rate})
		}
		sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	}
	return out
}
