package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"ceaff/internal/obs"
)

// TestShardedEngineBitIdentity pins the sharded router's contract: for any
// shard count, every response — collective, greedy, candidates — is
// bit-identical to the unsharded engine. Runs in the GOMAXPROCS=1/4
// determinism suite.
func TestShardedEngineBitIdentity(t *testing.T) {
	const n = 30
	base := literalEngine(coalesceTestMatrix(n))
	ctx := context.Background()
	r := rand.New(rand.NewSource(13))

	for _, nshards := range []int{1, 3, 8} {
		se, err := NewShardedEngine(base, nshards)
		if err != nil {
			t.Fatal(err)
		}
		if se.NumSources() != base.NumSources() {
			t.Fatalf("%d shards: NumSources %d != %d", nshards, se.NumSources(), base.NumSources())
		}
		// Partition sanity: every row owned exactly once, locals consistent.
		counts := make([]int, nshards)
		for row := 0; row < n; row++ {
			s := se.owner[row]
			counts[s]++
			if se.shards[s].rows[se.local[row]] != row {
				t.Fatalf("%d shards: row %d local mapping broken", nshards, row)
			}
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != n {
			t.Fatalf("%d shards: partition covers %d rows, want %d", nshards, total, n)
		}

		for trial := 0; trial < 30; trial++ {
			nrows := 1 + r.Intn(6)
			seen := map[int]bool{}
			var rows []int
			for len(rows) < nrows {
				row := r.Intn(n)
				if !seen[row] {
					seen[row] = true
					rows = append(rows, row)
				}
			}
			want, err := base.AlignCollective(ctx, rows, "")
			if err != nil {
				t.Fatal(err)
			}
			got, err := se.AlignCollective(ctx, rows, "")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d shards rows %v:\n got %+v\nwant %+v", nshards, rows, got, want)
			}
			if gg, wg := se.AlignGreedy(rows), base.AlignGreedy(rows); !reflect.DeepEqual(gg, wg) {
				t.Fatalf("%d shards greedy rows %v:\n got %+v\nwant %+v", nshards, rows, gg, wg)
			}
			wantC, err := base.Candidates(ctx, rows[0], 1+r.Intn(5))
			if err != nil {
				t.Fatal(err)
			}
			gotC, err := se.Candidates(ctx, rows[0], len(wantC))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotC, wantC) {
				t.Fatalf("%d shards candidates row %d:\n got %+v\nwant %+v", nshards, rows[0], gotC, wantC)
			}
		}
	}

	if _, err := NewShardedEngine(base, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
}

// TestShardedServerResponseBitIdentity drives full HTTP: a sharded server
// under concurrent load answers byte-identically to the unsharded one.
func TestShardedServerResponseBitIdentity(t *testing.T) {
	const n = 24
	base := literalEngine(coalesceTestMatrix(n))
	se, err := NewShardedEngine(base, 4)
	if err != nil {
		t.Fatal(err)
	}

	mk := func(a Aligner) (*Server, *httptest.Server) {
		cfg := testServerConfig()
		cfg.CacheSize = 0
		srv := NewServer(cfg, obs.NewRegistry())
		srv.SetAligner(a)
		return srv, httptest.NewServer(srv.Handler())
	}
	_, plainTS := mk(base)
	defer plainTS.Close()
	_, shardTS := mk(se)
	defer shardTS.Close()

	var wg sync.WaitGroup
	errs := make(chan string, 40)
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := []string{fmt.Sprint(i % n), fmt.Sprint((i + 7) % n)}
			ps, pb := postAlignRaw(t, plainTS.Client(), plainTS.URL, keys...)
			ss, sb := postAlignRaw(t, shardTS.Client(), shardTS.URL, keys...)
			if ps != http.StatusOK || ss != http.StatusOK {
				errs <- fmt.Sprintf("keys %v: statuses %d/%d", keys, ps, ss)
				return
			}
			if string(pb) != string(sb) {
				errs <- fmt.Sprintf("keys %v:\nplain %s\nshard %s", keys, pb, sb)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestRingProperties pins the router's hashing: deterministic ownership,
// and rough balance at realistic shard counts.
func TestRingProperties(t *testing.T) {
	ring := buildRing(4)
	for i := 1; i < len(ring); i++ {
		if ring[i].hash < ring[i-1].hash {
			t.Fatal("ring not sorted")
		}
	}
	counts := map[int]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("entity-%d", i)
		s := ringOwner(ring, k)
		if again := ringOwner(ring, k); again != s {
			t.Fatalf("ownership of %q not deterministic", k)
		}
		counts[s]++
	}
	for s := 0; s < 4; s++ {
		frac := float64(counts[s]) / keys
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("shard %d owns %.1f%% of keys — ring badly imbalanced", s, 100*frac)
		}
	}
}
