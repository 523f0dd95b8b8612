package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ceaff/internal/mat"
	"ceaff/internal/match"
	"ceaff/internal/obs"
	"ceaff/internal/robust"
)

// waitFor polls cond until it holds or the deadline passes. It sequences
// observable state transitions in tests; correctness never depends on the
// poll interval, only liveness does.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// stubAligner is a deterministic Aligner for server tests: it can block on
// a gate channel (honouring ctx), fail with a fixed error, and reports how
// often and how concurrently the collective path ran.
type stubAligner struct {
	n     int
	gate  chan struct{} // non-nil: AlignCollective blocks until closed
	fail  atomic.Bool   // AlignCollective returns an error
	calls atomic.Int64  // AlignCollective invocations

	inFlight atomic.Int64
	maxSeen  atomic.Int64
}

func newStubAligner(n int) *stubAligner { return &stubAligner{n: n} }

func (s *stubAligner) NumSources() int { return s.n }

func (s *stubAligner) Resolve(key string) (int, bool) {
	i, err := strconv.Atoi(key)
	if err != nil || i < 0 || i >= s.n {
		return 0, false
	}
	return i, true
}

func (s *stubAligner) decisions(rows []int, rank int) []Decision {
	out := make([]Decision, len(rows))
	for p, row := range rows {
		out[p] = Decision{
			SourceIndex: row, Source: fmt.Sprintf("src%d", row),
			TargetIndex: row, Target: fmt.Sprintf("tgt%d", row),
			Score: 1, Rank: rank, Matched: true,
		}
	}
	return out
}

func (s *stubAligner) Strategies() []string { return match.StrategyNames() }

func (s *stubAligner) AlignCollective(ctx context.Context, rows []int, _ string) ([]Decision, error) {
	s.calls.Add(1)
	cur := s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	for {
		max := s.maxSeen.Load()
		if cur <= max || s.maxSeen.CompareAndSwap(max, cur) {
			break
		}
	}
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if s.fail.Load() {
		return nil, errors.New("stub: collective decision failed")
	}
	return s.decisions(rows, 1), nil
}

func (s *stubAligner) AlignGreedy(rows []int) []Decision { return s.decisions(rows, 2) }

func (s *stubAligner) Candidates(_ context.Context, row, k int) ([]Candidate, error) {
	out := make([]Candidate, 0, k)
	for r := 0; r < k && r < s.n; r++ {
		out = append(out, Candidate{
			TargetIndex: r, Target: fmt.Sprintf("tgt%d", r),
			Score: 1 - float64(r), Rank: r + 1,
			Features: map[string]float64{"string": 1 - float64(r)},
		})
	}
	return out, nil
}

func alignBody(keys ...string) *bytes.Reader {
	b, _ := json.Marshal(alignRequest{Sources: keys})
	return bytes.NewReader(b)
}

func postAlign(t *testing.T, client *http.Client, url string, hdr map[string]string, keys ...string) (*http.Response, alignResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/align", alignBody(keys...))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body alignResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, body
}

func testServerConfig() Config {
	cfg := DefaultServerConfig()
	cfg.Breaker.Now = func() time.Time { return time.Unix(0, 0) }
	return cfg
}

// TestServerFloodShedsAndBoundsInFlight floods a server whose collective
// path is gated shut: exactly MaxInFlight+MaxQueue requests may be
// admitted, everything beyond is shed with 429 + Retry-After, and the
// stub never observes more than MaxInFlight concurrent executions.
func TestServerFloodShedsAndBoundsInFlight(t *testing.T) {
	const maxInFlight, maxQueue, flood = 2, 2, 10
	reg := obs.NewRegistry()
	cfg := testServerConfig()
	cfg.MaxInFlight, cfg.MaxQueue = maxInFlight, maxQueue
	cfg.RetryAfter = 2 * time.Second
	srv := NewServer(cfg, reg)
	stub := newStubAligner(16)
	stub.gate = make(chan struct{})
	srv.SetAligner(stub)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	type outcome struct {
		status     int
		retryAfter string
		degraded   bool
	}
	results := make(chan outcome, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postAlign(t, client, ts.URL, nil, strconv.Itoa(i))
			results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After"), body.Degraded}
		}(i)
	}

	// All excess requests must be shed before anything completes: the gate
	// is still shut, so exactly flood-(maxInFlight+maxQueue) sheds appear.
	waitFor(t, func() bool {
		return reg.Counter("serve.shed").Value() == flood-(maxInFlight+maxQueue)
	})
	if got := srv.admission.InFlight(); got != maxInFlight {
		t.Fatalf("in-flight %d while gated, want %d", got, maxInFlight)
	}
	close(stub.gate)
	wg.Wait()
	close(results)

	var ok, shed int
	for r := range results {
		switch r.status {
		case http.StatusOK:
			ok++
			if r.degraded {
				t.Error("healthy collective request answered degraded")
			}
		case http.StatusTooManyRequests:
			shed++
			if r.retryAfter != "2" {
				t.Errorf("shed response Retry-After = %q, want \"2\"", r.retryAfter)
			}
		default:
			t.Errorf("unexpected status %d", r.status)
		}
	}
	if ok != maxInFlight+maxQueue || shed != flood-(maxInFlight+maxQueue) {
		t.Fatalf("ok=%d shed=%d, want %d/%d", ok, shed, maxInFlight+maxQueue, flood-(maxInFlight+maxQueue))
	}
	if got := stub.maxSeen.Load(); got > maxInFlight {
		t.Fatalf("collective path saw %d concurrent executions, bound is %d", got, maxInFlight)
	}
	waitFor(t, func() bool { return srv.admission.InFlight() == 0 })
}

// TestServerBreakerFallback drives the breaker through its full cycle over
// HTTP using deterministic failures: collective failures degrade responses
// and trip the breaker, an open breaker skips the collective path
// entirely, and a successful probe after the cooldown recloses it.
func TestServerBreakerFallback(t *testing.T) {
	reg := obs.NewRegistry()
	clock := &fakeClock{t: time.Unix(0, 0)}
	cfg := testServerConfig()
	cfg.Breaker = BreakerConfig{
		Window: 4, MinSamples: 2, FailureThreshold: 0.5,
		Cooldown: 10 * time.Second, Now: clock.now,
	}
	srv := NewServer(cfg, reg)
	stub := newStubAligner(8)
	srv.SetAligner(stub)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Two failing collective decisions: both answered degraded, breaker
	// trips on the second.
	stub.fail.Store(true)
	for i := 0; i < 2; i++ {
		resp, body := postAlign(t, client, ts.URL, nil, "0", "1")
		if resp.StatusCode != http.StatusOK || !body.Degraded {
			t.Fatalf("failing collective: status %d degraded %v, want 200/degraded", resp.StatusCode, body.Degraded)
		}
		for _, d := range body.Results {
			if d.Rank != 2 {
				t.Fatalf("fallback decision rank %d, want greedy stub rank 2", d.Rank)
			}
		}
	}
	if srv.breaker.State() != BreakerOpen {
		t.Fatalf("breaker state %v after failures, want open", srv.breaker.State())
	}
	if got := reg.Counter("serve.breaker.opened").Value(); got != 1 {
		t.Fatalf("opened counter %d, want 1", got)
	}

	// Open breaker: collective path not even attempted.
	before := stub.calls.Load()
	resp, body := postAlign(t, client, ts.URL, nil, "2")
	if resp.StatusCode != http.StatusOK || !body.Degraded {
		t.Fatalf("open-breaker request: status %d degraded %v", resp.StatusCode, body.Degraded)
	}
	if stub.calls.Load() != before {
		t.Fatal("open breaker still invoked the collective path")
	}
	if got := reg.Counter("serve.fallback").Value(); got != 3 {
		t.Fatalf("fallback counter %d, want 3", got)
	}

	// Cooldown elapses; the probe succeeds and the breaker recloses.
	stub.fail.Store(false)
	clock.advance(10 * time.Second)
	resp, body = postAlign(t, client, ts.URL, nil, "3")
	if resp.StatusCode != http.StatusOK || body.Degraded {
		t.Fatalf("probe request: status %d degraded %v, want 200/undegraded", resp.StatusCode, body.Degraded)
	}
	if srv.breaker.State() != BreakerClosed {
		t.Fatalf("breaker state %v after probe, want closed", srv.breaker.State())
	}
	if got := reg.Counter("serve.breaker.closed").Value(); got != 1 {
		t.Fatalf("closed counter %d, want 1", got)
	}
}

// TestServerForcedCollectiveFault pins the serve.collective fault site:
// one armed fault degrades exactly one response without touching the
// engine.
func TestServerForcedCollectiveFault(t *testing.T) {
	t.Cleanup(robust.Reset)
	srv := NewServer(testServerConfig(), obs.NewRegistry())
	stub := newStubAligner(4)
	srv.SetAligner(stub)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	robust.Arm(robust.Fault{Site: FaultCollective})
	resp, body := postAlign(t, ts.Client(), ts.URL, nil, "0")
	if resp.StatusCode != http.StatusOK || !body.Degraded {
		t.Fatalf("status %d degraded %v, want 200/degraded", resp.StatusCode, body.Degraded)
	}
	if stub.calls.Load() != 0 {
		t.Fatal("injected fault still reached the engine")
	}
	resp, body = postAlign(t, ts.Client(), ts.URL, nil, "0")
	if resp.StatusCode != http.StatusOK || body.Degraded {
		t.Fatalf("post-fault request: status %d degraded %v, want clean 200", resp.StatusCode, body.Degraded)
	}
}

// TestServerPanicIsolation pins per-request panic isolation: an armed
// panic fault yields one 500 and a counter increment; the next request on
// the same server succeeds.
func TestServerPanicIsolation(t *testing.T) {
	t.Cleanup(robust.Reset)
	reg := obs.NewRegistry()
	srv := NewServer(testServerConfig(), reg)
	srv.SetAligner(newStubAligner(4))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	robust.Arm(robust.Fault{Site: FaultPanic})
	resp, _ := postAlign(t, ts.Client(), ts.URL, nil, "0")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request status %d, want 500", resp.StatusCode)
	}
	if got := reg.Counter("serve.panics").Value(); got != 1 {
		t.Fatalf("panics counter %d, want 1", got)
	}
	if got := srv.admission.InFlight(); got != 0 {
		t.Fatalf("in-flight %d after panic, want 0 (slot leaked)", got)
	}
	resp, body := postAlign(t, ts.Client(), ts.URL, nil, "1")
	if resp.StatusCode != http.StatusOK || body.Degraded {
		t.Fatalf("post-panic request: status %d degraded %v", resp.StatusCode, body.Degraded)
	}
}

// TestServerDeadlinePropagation pins that the client budget header becomes
// a context deadline inside the decision path, aborts the gated collective
// decision, and the request still answers from the greedy fallback.
func TestServerDeadlinePropagation(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(testServerConfig(), reg)
	stub := newStubAligner(4)
	stub.gate = make(chan struct{}) // never closed: only the deadline frees the request
	srv.SetAligner(stub)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postAlign(t, ts.Client(), ts.URL, map[string]string{"X-Deadline-Ms": "5"}, "0")
	if resp.StatusCode != http.StatusOK || !body.Degraded {
		t.Fatalf("deadline request: status %d degraded %v, want 200/degraded", resp.StatusCode, body.Degraded)
	}
	if got := reg.Counter("serve.fallback").Value(); got != 1 {
		t.Fatalf("fallback counter %d, want 1", got)
	}
}

// TestServerRequestValidation covers the 4xx surface: malformed body,
// empty and oversized batches, unknown and duplicate sources.
func TestServerRequestValidation(t *testing.T) {
	cfg := testServerConfig()
	cfg.MaxBatch = 2
	srv := NewServer(cfg, obs.NewRegistry())
	srv.SetAligner(newStubAligner(4))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	post := func(body string) int {
		resp, err := client.Post(ts.URL+"/v1/align", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		body string
		want int
	}{
		{"{not json", http.StatusBadRequest},
		{`{"sources":[]}`, http.StatusBadRequest},
		{`{"sources":["0","1","2"]}`, http.StatusBadRequest}, // over MaxBatch
		{`{"sources":["99"]}`, http.StatusNotFound},
		{`{"sources":["nope"]}`, http.StatusNotFound},
		{`{"sources":["1","1"]}`, http.StatusBadRequest},
	} {
		if got := post(tc.body); got != tc.want {
			t.Errorf("body %s: status %d, want %d", tc.body, got, tc.want)
		}
	}

	// Candidates endpoint validation.
	for path, want := range map[string]int{
		"/v1/entity/99/candidates":    http.StatusNotFound,
		"/v1/entity/0/candidates?k=x": http.StatusBadRequest,
		"/v1/entity/0/candidates?k=2": http.StatusOK,
	} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestServerLifecycleAndGoroutines runs the full lifecycle — start, warm
// up, flood, drain on a real listener — and pins that (a) /readyz tracks
// warm-up and draining, (b) SIGTERM-style Shutdown waits for in-flight
// requests, and (c) the goroutine count returns to baseline afterwards.
func TestServerLifecycleAndGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	reg := obs.NewRegistry()
	srv := NewServer(testServerConfig(), reg)
	stub := newStubAligner(8)
	stub.gate = make(chan struct{})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	// Warming up: healthz live, readyz and align not ready.
	getStatus := func(path string) int {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := getStatus("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz during warm-up: %d", got)
	}
	if got := getStatus("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz during warm-up: %d, want 503", got)
	}
	resp, _ := postAlign(t, client, base, nil, "0")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("align during warm-up: %d, want 503", resp.StatusCode)
	}

	srv.SetAligner(stub)
	if got := getStatus("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after warm-up: %d, want 200", got)
	}

	// Two in-flight requests blocked on the gate.
	statuses := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postAlign(t, client, base, nil, strconv.Itoa(i))
			if body.Degraded {
				t.Error("drained request answered degraded")
			}
			statuses <- resp.StatusCode
		}(i)
	}
	waitFor(t, func() bool { return stub.inFlight.Load() == 2 })

	// Drain: readyz flips immediately, in-flight requests finish, Serve
	// returns ErrServerClosed, Shutdown returns nil.
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return !srv.Ready() })
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", rec.Code)
	}

	close(stub.gate)
	wg.Wait()
	close(statuses)
	for status := range statuses {
		if status != http.StatusOK {
			t.Fatalf("in-flight request during drain: status %d, want 200", status)
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}

	// Everything spawned by the server lifecycle must be gone.
	client.CloseIdleConnections()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })
}

// coalesceTestMatrix builds a deterministic fused matrix with deliberate
// score collisions so tie-breaks matter.
func coalesceTestMatrix(n int) *mat.Dense {
	m := mat.NewDense(n, n)
	s := uint64(5)
	for i := range m.Data {
		s = s*6364136223846793005 + 1442695040888963407
		m.Data[i] = float64((s>>33)%23) / 23
	}
	return m
}

// FuzzAlignRequest sends arbitrary bytes as a /v1/align body and as a
// candidates {id} and k to a server over a literalEngine: every answer must
// be 200, 400 or 404 with a JSON body, and nothing may panic (the server's
// panic isolation would turn a panic into a 500).
func FuzzAlignRequest(f *testing.F) {
	f.Add([]byte(`{"sources":["0","b"]}`), "0", "3")
	f.Add([]byte(`{"sources":["a"],"strategy":"hungarian"}`), "c", "")
	f.Add([]byte(`{"sources":[]}`), "99", "-1")
	f.Add([]byte(`{"sources":["0","a"]}`), "zz", "x")
	f.Add([]byte(`{"sources":["-1"],"strategy":"nope"}`), "%2F", "1e9")
	f.Add([]byte(`[1,{"sources":null}`), "\xff", "99999999999999999999")
	srv := NewServer(testServerConfig(), obs.NewRegistry())
	srv.SetAligner(literalEngine(coalesceTestMatrix(12)))
	h := srv.Handler()
	check := func(t *testing.T, req *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("%s %s: status %d: %s", req.Method, req.URL, rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %s: body is not JSON: %q", req.Method, req.URL, rec.Body.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, id, k string) {
		check(t, httptest.NewRequest(http.MethodPost, "/v1/align", bytes.NewReader(body)))
		// An id that is empty, a dot segment or holds a slash is not one
		// path segment: the router cleans such paths and answers them
		// itself (plain-text 404 or redirect) before any handler runs.
		if id == "" || id == "." || id == ".." || strings.Contains(id, "/") {
			return
		}
		check(t, httptest.NewRequest(http.MethodGet,
			"/v1/entity/"+url.PathEscape(id)+"/candidates?k="+url.QueryEscape(k), nil))
	})
}

// postAlignRaw returns the raw response bytes of one align POST.
func postAlignRaw(t *testing.T, client *http.Client, url string, keys ...string) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/v1/align", "application/json", alignBody(keys...))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestCachedResponseBitIdentityUnderConcurrency pins the serving path's
// byte identity: concurrent requests answered cold by the engine and, on
// repeat, from the result cache return byte-for-byte the responses an
// uncached server produces for the same keys. Runs in the GOMAXPROCS=1/4
// determinism suite.
func TestCachedResponseBitIdentityUnderConcurrency(t *testing.T) {
	const n = 24
	engine := literalEngine(coalesceTestMatrix(n))

	plainCfg := testServerConfig()
	plainCfg.CacheSize = 0
	plain := NewServer(plainCfg, obs.NewRegistry())
	plain.SetAligner(engine)
	plainTS := httptest.NewServer(plain.Handler())
	defer plainTS.Close()

	cachedCfg := testServerConfig()
	cachedCfg.CacheSize = 64
	cachedCfg.MaxInFlight = 64
	cachedCfg.MaxQueue = 256
	cached := NewServer(cachedCfg, obs.NewRegistry())
	cached.SetAligner(engine)
	cachedTS := httptest.NewServer(cached.Handler())
	defer cachedTS.Close()

	// Reference answers from the plain server, one request per key set.
	r := rand.New(rand.NewSource(77))
	type query struct{ keys []string }
	queries := make([]query, 64)
	for i := range queries {
		nkeys := 1 + r.Intn(3)
		seen := map[int]bool{}
		var keys []string
		for len(keys) < nkeys {
			row := r.Intn(n)
			if !seen[row] {
				seen[row] = true
				keys = append(keys, fmt.Sprint(row))
			}
		}
		queries[i] = query{keys: keys}
	}
	client := plainTS.Client()
	want := make([][]byte, len(queries))
	for i, q := range queries {
		status, body := postAlignRaw(t, client, plainTS.URL, q.keys...)
		if status != http.StatusOK {
			t.Fatalf("plain query %v: status %d", q.keys, status)
		}
		want[i] = body
	}

	// Fire all queries at the caching server concurrently, twice — the
	// second round answers single-source queries from the cache. Every
	// response must match the plain server's bytes.
	cc := cachedTS.Client()
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make(chan string, len(queries))
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q query) {
				defer wg.Done()
				status, body := postAlignRaw(t, cc, cachedTS.URL, q.keys...)
				if status != http.StatusOK {
					errs <- fmt.Sprintf("round %d query %v: status %d", round, q.keys, status)
					return
				}
				if string(body) != string(want[i]) {
					errs <- fmt.Sprintf("round %d query %v:\n got %s\nwant %s", round, q.keys, body, want[i])
				}
			}(i, q)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}

	if hits := cached.reg.Counter("serve.cache.hits").Value(); hits == 0 {
		t.Fatal("second round produced no cache hits")
	}
}

// TestCacheInvalidationOnHotSwap is the chaos-style satellite: answers
// cached under one engine version must never be served after a Publish,
// even for the same source key.
func TestCacheInvalidationOnHotSwap(t *testing.T) {
	cfg := testServerConfig()
	cfg.CacheSize = 64
	srv := NewServer(cfg, obs.NewRegistry())

	v1 := literalEngine(mat.FromRows([][]float64{{0.9, 0.1}, {0.2, 0.8}}))
	srv.Publish(v1, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	_, body1 := postAlignRaw(t, client, ts.URL, "0")
	_, again := postAlignRaw(t, client, ts.URL, "0")
	if string(body1) != string(again) {
		t.Fatalf("cached answer differs:\n%s\n%s", body1, again)
	}
	if srv.reg.Counter("serve.cache.hits").Value() == 0 {
		t.Fatal("repeat query did not hit the cache")
	}

	// Swap in an engine whose row 0 prefers the other target. A stale
	// cached answer would still name target A.
	v2 := literalEngine(mat.FromRows([][]float64{{0.1, 0.9}, {0.8, 0.2}}))
	srv.Publish(v2, 2)
	_, body2 := postAlignRaw(t, client, ts.URL, "0")
	if string(body2) == string(body1) {
		t.Fatalf("post-swap answer identical to pre-swap: %s", body2)
	}
	var resp alignResponse
	if err := json.Unmarshal(body2, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].TargetIndex != 1 {
		t.Fatalf("post-swap target %d, want 1 (stale cache?)", resp.Results[0].TargetIndex)
	}

	// Candidates go through the same versioned keys.
	cresp, err := client.Get(ts.URL + "/v1/entity/0/candidates?k=1")
	if err != nil {
		t.Fatal(err)
	}
	cbody, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	var cands struct {
		Candidates []Candidate `json:"candidates"`
	}
	if err := json.Unmarshal(cbody, &cands); err != nil {
		t.Fatal(err)
	}
	if len(cands.Candidates) != 1 || cands.Candidates[0].TargetIndex != 1 {
		t.Fatalf("post-swap candidates %+v, want target 1 first", cands.Candidates)
	}
}
