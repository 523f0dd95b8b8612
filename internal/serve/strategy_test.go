package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ceaff/internal/mat"
	"ceaff/internal/obs"
)

// limitedStrategyAligner narrows a stub's advertised strategy set, modelling
// a blocked engine that cannot run Hungarian.
type limitedStrategyAligner struct{ *stubAligner }

func (l limitedStrategyAligner) Strategies() []string { return []string{"da", "greedy"} }

func postAlignStrategy(t *testing.T, client *http.Client, url, strategy string, keys ...string) (*http.Response, alignResponse) {
	t.Helper()
	b, _ := json.Marshal(alignRequest{Sources: keys, Strategy: strategy})
	resp, err := client.Post(url+"/v1/align", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body alignResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
	}
	return resp, body
}

// TestAlignStrategyRejected pins the per-request strategy contract: unknown
// names and names the engine does not support answer 400 and bump
// serve.strategy.rejected, mirroring the malformed-deadline handling;
// aliases canonicalize and count under the canonical name.
func TestAlignStrategyRejected(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(testServerConfig(), reg)
	srv.SetAligner(limitedStrategyAligner{newStubAligner(8)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	if resp, _ := postAlignStrategy(t, client, ts.URL, "simulated-annealing", "0"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown strategy: status %d, want 400", resp.StatusCode)
	}
	if got := reg.Counter("serve.strategy.rejected").Value(); got != 1 {
		t.Fatalf("rejected counter %d after unknown strategy, want 1", got)
	}
	// Known to match, unsupported by this engine (alias canonicalizes to
	// hungarian first, so the rejection is about support, not spelling).
	if resp, _ := postAlignStrategy(t, client, ts.URL, "assignment", "0"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unsupported strategy: status %d, want 400", resp.StatusCode)
	}
	if got := reg.Counter("serve.strategy.rejected").Value(); got != 2 {
		t.Fatalf("rejected counter %d after unsupported strategy, want 2", got)
	}
	// Supported alias: accepted and counted under the canonical name.
	if resp, body := postAlignStrategy(t, client, ts.URL, "collective", "0"); resp.StatusCode != http.StatusOK || body.Degraded {
		t.Fatalf("supported alias: status %d degraded %v, want 200/false", resp.StatusCode, body.Degraded)
	}
	if got := reg.Counter("serve.align.strategy.da").Value(); got != 1 {
		t.Fatalf("per-strategy counter %d, want 1", got)
	}
	if got := reg.Counter("serve.strategy.rejected").Value(); got != 2 {
		t.Fatalf("rejected counter moved on a supported alias: %d", got)
	}
}

// staticStrategyEngine builds a real dense engine over a fixed matrix whose
// rows 0..2 have distinct argmax targets (the diagonal) and whose row 3 ties
// row 0's argmax, forcing competition.
func staticStrategyEngine(t *testing.T) *Partition {
	t.Helper()
	fused := mat.NewDense(4, 4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			fused.Set(i, j, 0.1*float64(j+1))
		}
		fused.Set(i, i, 1.0)
	}
	// Row 3 prefers target 0 — colliding with row 0 — then target 3.
	fused.Set(3, 0, 0.9)
	fused.Set(3, 3, 0.8)
	names := []string{"s0", "s1", "s2", "s3"}
	tgts := []string{"t0", "t1", "t2", "t3"}
	e, err := NewStaticEngine(fused, nil, names, tgts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAlignGroupCache pins the multi-source cache path: a multi-source
// batch admits its unilateral rows individually, and a
// later batch whose rows all hit with pairwise-distinct targets is served
// from cache bit-identically — without touching the engine again.
func TestAlignGroupCache(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(testServerConfig(), reg)
	srv.SetAligner(staticStrategyEngine(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	// Cold multi-source request over rows with distinct argmaxes: executes,
	// then admits each row individually.
	resp, first := postAlignStrategy(t, client, ts.URL, "", "0", "1", "2")
	if resp.StatusCode != http.StatusOK || first.Degraded {
		t.Fatalf("cold batch: status %d degraded %v", resp.StatusCode, first.Degraded)
	}
	if got := srv.cache.len(); got != 3 {
		t.Fatalf("cache holds %d entries after batch admission, want 3", got)
	}

	// Warm repeat: served wholly from the per-row cache.
	resp, warm := postAlignStrategy(t, client, ts.URL, "", "0", "1", "2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm batch: status %d", resp.StatusCode)
	}
	if !reflect.DeepEqual(first.Results, warm.Results) {
		t.Fatalf("cached group answer diverges:\n first %+v\n warm  %+v", first.Results, warm.Results)
	}
	if got := reg.Counter("serve.cache.group_hits").Value(); got != 1 {
		t.Fatalf("group_hits %d after warm repeat, want 1", got)
	}

	// A single-row request for an admitted row is a plain cache hit — the
	// batch-admitted entry is exactly the single-row answer.
	resp, single := postAlignStrategy(t, client, ts.URL, "", "1")
	if resp.StatusCode != http.StatusOK || len(single.Results) != 1 || single.Results[0].TargetIndex != 1 {
		t.Fatalf("single from batch-warmed cache: %+v", single.Results)
	}

	// Rows 0 and 3 contend for target 0: the collective loser's decision is
	// not unilateral, so the group can never be served from per-row cache.
	resp, contended := postAlignStrategy(t, client, ts.URL, "", "0", "3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contended batch: status %d", resp.StatusCode)
	}
	if contended.Results[0].TargetIndex != 0 || contended.Results[1].TargetIndex != 3 {
		t.Fatalf("contended decisions %+v, want row0→t0 row3→t3", contended.Results)
	}
	groupHits := reg.Counter("serve.cache.group_hits").Value()
	resp, again := postAlignStrategy(t, client, ts.URL, "", "0", "3")
	if resp.StatusCode != http.StatusOK || !reflect.DeepEqual(contended.Results, again.Results) {
		t.Fatalf("contended repeat diverges: %+v vs %+v", contended.Results, again.Results)
	}
	if got := reg.Counter("serve.cache.group_hits").Value(); got != groupHits {
		t.Fatalf("contended group served from cache: group_hits %d → %d", groupHits, got)
	}

	// Non-default strategies bypass the cache entirely.
	before := srv.cache.len()
	if resp, _ := postAlignStrategy(t, client, ts.URL, "greedy", "0", "1", "2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("strategy batch: status %d", resp.StatusCode)
	}
	if got := srv.cache.len(); got != before {
		t.Fatalf("non-default strategy touched the cache: %d → %d entries", before, got)
	}
}
