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
	"time"

	"ceaff/internal/obs"
)

// TestShardedRouterBitIdentity pins the `-shards N` topology's contract:
// for any partition count, a Router over in-process partitions answers
// every query — collective, greedy, candidates — bit-identically to the
// unsharded engine. Runs in the GOMAXPROCS=1/4 determinism suite.
func TestShardedRouterBitIdentity(t *testing.T) {
	const n = 30
	base := literalEngine(coalesceTestMatrix(n))
	ctx := context.Background()
	r := rand.New(rand.NewSource(13))

	for _, nshards := range []int{1, 3, 8} {
		se, err := NewShardedRouter(base, nshards, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if se.NumSources() != base.NumSources() {
			t.Fatalf("%d shards: NumSources %d != %d", nshards, se.NumSources(), base.NumSources())
		}
		if se.NumPartitions() != nshards {
			t.Fatalf("%d shards: NumPartitions %d", nshards, se.NumPartitions())
		}
		// Partition sanity: every row owned exactly once, by the ring's
		// owner, with a consistent local mapping.
		owner := partitionOwnership(base.srcNames, nshards)
		parts := make([]*Partition, nshards)
		for s, set := range se.replicas {
			parts[s] = set.links[0].t.(*LocalTransport).P
		}
		for row := 0; row < n; row++ {
			owners := 0
			for _, p := range parts {
				if p.Owns(row) {
					owners++
				}
			}
			if owners != 1 || !parts[owner[row]].Owns(row) {
				t.Fatalf("%d shards: row %d owned by %d partitions, want exactly partition %d", nshards, row, owners, owner[row])
			}
			if p := parts[owner[row]]; p.rows[p.local[row]] != row {
				t.Fatalf("%d shards: row %d local mapping broken", nshards, row)
			}
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

	if _, err := NewShardedRouter(base, 0, obs.NewRegistry()); err == nil {
		t.Fatal("0 shards accepted")
	}
}

// TestShardedRouterCallerDeadlines pins that a caller's own budget ending
// fails only that caller: expired, cancelled and near-expired requests must
// not trip an in-process partition's breaker, mark it lost or degrade the
// answers of the requests that follow.
func TestShardedRouterCallerDeadlines(t *testing.T) {
	const n = 24
	base := literalEngine(coalesceTestMatrix(n))
	reg := obs.NewRegistry()
	rt, err := NewShardedRouter(base, 3, reg)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}

	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		// Near-expired deadlines, 0 to 10µs.
		short, cancelShort := context.WithTimeout(context.Background(), time.Duration(i*50)*time.Nanosecond)
		for _, ctx := range []context.Context{expired, cancelled, short} {
			rt.AlignCollective(ctx, rows, "")
			rt.Candidates(ctx, i%n, 3)
		}
		cancelShort()
	}

	// A partition read cannot block, so an expired context cannot fail it
	// and count against the partition's breaker.
	p0 := rt.replicas[0].links[0].t.(*LocalTransport).P
	if _, err := rt.replicas[0].links[0].t.Gather(expired, rt.Version(), p0.rows[:1], true); err != nil {
		t.Fatalf("local gather under an expired context: %v", err)
	}
	if got := reg.Gauge("serve.partition.lost").Value(); got != 0 {
		t.Fatalf("serve.partition.lost = %v after caller deadlines, want 0", got)
	}
	for p, set := range rt.replicas {
		for _, link := range set.links {
			if !link.healthy.Load() || link.breaker.State() != BreakerClosed {
				t.Fatalf("partition %d: healthy=%v breaker %v after caller deadlines",
					p, link.healthy.Load(), link.breaker.State())
			}
		}
	}
	ctx := context.Background()
	got, err := rt.AlignCollective(ctx, rows, "")
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.AlignCollective(ctx, rows, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("answer after caller deadlines:\n got %+v\nwant %+v", got, want)
	}
	if _, err := rt.Candidates(ctx, 0, 3); err != nil {
		t.Fatalf("Candidates after caller deadlines: %v", err)
	}
}

// TestShardedServerResponseBitIdentity drives full HTTP: a sharded server
// under concurrent load answers byte-identically to the unsharded one.
func TestShardedServerResponseBitIdentity(t *testing.T) {
	const n = 24
	base := literalEngine(coalesceTestMatrix(n))
	se, err := NewShardedRouter(base, 4, obs.NewRegistry())
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
