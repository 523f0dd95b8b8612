package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// A stall on the one connection must be charged to every request scheduled
// behind it: latency runs from the due time, not from when a connection
// picked the request up.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		_, _ = w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	g := newGenerator(srv.URL, 1, time.Now())
	defer g.close()
	w := &workload{rate: 1000, alignFrac: 1, batch: 1}
	recs := g.open(context.Background(), phaseMeasure, openSchedule(w, newKeyStream(w, 10, 1), nil, 0.02))
	if len(recs) != 20 {
		t.Fatalf("sent %d requests, want 20", len(recs))
	}
	var svc []float64
	for i := range recs {
		r := &recs[i]
		if r.err != "" || r.status != http.StatusOK {
			t.Fatalf("request %d: err %q status %d", i, r.err, r.status)
		}
		// The server held its first answer for stall, and every later
		// request waited behind it on the single connection.
		behind := float64(r.due-recs[0].due) / 1e6
		if want := float64(stall.Milliseconds()) - behind; r.latencyMs() < want {
			t.Errorf("request %d due %.1f ms after the first: latency %.2f ms, want >= %.1f ms", i, behind, r.latencyMs(), want)
		}
		if i > 0 {
			svc = append(svc, float64(r.done-r.sent)/1e6)
		}
	}
	lat := percentile(readLatencies(recs, phaseMeasure), 0.5)
	if s := percentile(svc, 0.5); s >= lat/2 {
		t.Errorf("p50 from send %.2f ms is not well below p50 from due %.2f ms", s, lat)
	}
}

func TestKeyStreamsReproducible(t *testing.T) {
	const n = 500
	for _, w := range workloads {
		a, b, c := newKeyStream(w, n, 7), newKeyStream(w, n, 7), newKeyStream(w, n, 8)
		differs := false
		for i := 0; i < 1000; i++ {
			oa, ob, oc := a.next(), b.next(), c.next()
			if oa.key() != ob.key() {
				t.Fatalf("%s: op %d differs under one seed: %s vs %s", w.name, i, oa.key(), ob.key())
			}
			differs = differs || oa.key() != oc.key()
			seen := map[int]bool{}
			for _, r := range oa.rows {
				if r < 0 || r >= n || seen[r] {
					t.Fatalf("%s: op %d has out-of-range or repeated row %d: %s", w.name, i, r, oa.key())
				}
				seen[r] = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 drew the same 1000 ops", w.name)
		}
	}
}

func TestMutationStreamReproducible(t *testing.T) {
	in, err := buildInput("SRPRS EN-FR*", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	a, b := newMutationStream(in.G1, 3), newMutationStream(in.G1, 3)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		oa, ob := a.next(), b.next()
		if oa.key() != ob.key() {
			t.Fatalf("mutation %d differs under one seed: %s vs %s", i, oa.key(), ob.key())
		}
		if oa.mut.Head == oa.mut.Tail || seen[oa.key()] {
			t.Fatalf("mutation %d is a self loop or a repeat: %s", i, oa.key())
		}
		seen[oa.key()] = true
	}
}
