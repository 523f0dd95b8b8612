package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"ceaff/internal/core"
	"ceaff/internal/gcn"
	"ceaff/internal/obs"
	"ceaff/internal/robust"
	"ceaff/internal/wal"
)

// The chaos suite kills the durable update subsystem at every fault site —
// WAL append, rebuild, swap — plus on-disk corruption between runs, and
// asserts the recovery contract: acknowledged mutations survive, /readyz
// never flips during degradation, and a process "killed" at any point
// rebuilds a bit-identical engine. CI runs these tests under -race at
// GOMAXPROCS=1 and 4 (the Chaos name pattern is part of the determinism
// job's regex).

// TestChaosWALAppendFault pins that a failed durable append changes nothing:
// the client sees a 500, and neither the WAL, the projection, nor the engine
// version advances. The next batch succeeds with the same sequence the
// failed one would have taken.
func TestChaosWALAppendFault(t *testing.T) {
	t.Cleanup(robust.Reset)
	cfg := DefaultUpdaterConfig()
	cfg.Retry = fastRetry()
	h := newMutHarness(t, stubBuild, cfg)

	robust.Arm(robust.Fault{Site: FaultWALAppend})
	batch := `{"mutations":[{"op":"add_triple","kg":1,"head":"l:a","rel":"rel","tail":"l:c"}]}`
	status, body, _ := postMutate(t, h.ts, batch)
	if status != http.StatusInternalServerError {
		t.Fatalf("faulted append: status %d (%s), want 500", status, body)
	}
	if h.store.Seq() != 0 || h.log.Seq() != 0 || h.upd.Version() != 0 {
		t.Fatalf("state advanced through failed append: store=%d wal=%d version=%d",
			h.store.Seq(), h.log.Seq(), h.upd.Version())
	}
	if robust.Fired(FaultWALAppend) != 1 {
		t.Fatalf("fault fired %d times, want 1", robust.Fired(FaultWALAppend))
	}

	// The fault window has passed; the retry lands on seq 1 as if the
	// failure never happened.
	status, body, _ = postMutate(t, h.ts, batch)
	if status != http.StatusOK {
		t.Fatalf("retried append: status %d (%s), want 200", status, body)
	}
	var res MutateResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.FirstSeq != 1 {
		t.Fatalf("retried batch seq %d, want 1", res.FirstSeq)
	}
	waitFor(t, func() bool { return h.upd.Version() == 1 })
}

// TestChaosRebuildExhaustionMarksStale arms serve.rebuild for every retry
// attempt: the rebuild fails terminally, the served engine is marked stale —
// but keeps serving, /readyz stays 200 — and the next rebuild pass recovers,
// clearing staleness and publishing the pending state.
func TestChaosRebuildExhaustionMarksStale(t *testing.T) {
	t.Cleanup(robust.Reset)
	cfg := DefaultUpdaterConfig()
	cfg.Retry = fastRetry()
	h := newMutHarness(t, stubBuild, cfg)

	robust.Arm(robust.Fault{Site: FaultRebuild, Count: cfg.Retry.MaxAttempts})
	status, body, _ := postMutate(t, h.ts,
		`{"mutations":[{"op":"add_seed","source":"l:c","target":"r:c"}]}`)
	if status != http.StatusOK {
		t.Fatalf("mutate status %d: %s", status, body)
	}
	waitFor(t, func() bool { return h.reg.Counter("serve.rebuild.failures").Value() == 1 })
	if robust.Fired(FaultRebuild) != cfg.Retry.MaxAttempts {
		t.Fatalf("rebuild fault fired %d times, want %d",
			robust.Fired(FaultRebuild), cfg.Retry.MaxAttempts)
	}

	// Degraded to staleness, not down: old engine serves, readyz green,
	// staleness advertised everywhere.
	if !h.srv.Stale() || h.upd.Version() != 0 {
		t.Fatalf("stale=%v version=%d after exhausted retries, want true/0",
			h.srv.Stale(), h.upd.Version())
	}
	if got := h.reg.Gauge("serve.engine.stale").Value(); got != 1 {
		t.Fatalf("stale gauge %v, want 1", got)
	}
	resp, err := h.ts.Client().Get(h.ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rz readyzBody
	if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rz.Stale || rz.EngineVersion != 0 {
		t.Fatalf("readyz while stale: status %d body %+v, want 200/stale/version 0",
			resp.StatusCode, rz)
	}
	aresp, abody := postAlign(t, h.ts.Client(), h.ts.URL, nil, "0")
	if aresp.StatusCode != http.StatusOK || abody.Degraded {
		t.Fatalf("align while stale: status %d degraded %v, want clean 200",
			aresp.StatusCode, abody.Degraded)
	}
	if got := aresp.Header.Get("Engine-Stale"); got != "true" {
		t.Fatalf("Engine-Stale header %q while stale, want \"true\"", got)
	}

	// The fault window is exhausted; a manual resync recovers.
	if err := h.upd.RebuildNow(context.Background()); err != nil {
		t.Fatalf("recovery rebuild failed: %v", err)
	}
	if h.srv.Stale() || h.upd.Version() != 1 || h.upd.Pending() != 0 {
		t.Fatalf("after recovery: stale=%v version=%d pending=%d, want false/1/0",
			h.srv.Stale(), h.upd.Version(), h.upd.Pending())
	}
	if got := h.reg.Gauge("serve.engine.stale").Value(); got != 0 {
		t.Fatalf("stale gauge %v after recovery, want 0", got)
	}
}

// TestChaosSwapFaultRetried arms serve.swap once: the first attempt builds
// an engine but fails to publish it; the jittered retry rebuilds and
// publishes. One transient fault costs one retry, never staleness.
func TestChaosSwapFaultRetried(t *testing.T) {
	t.Cleanup(robust.Reset)
	cfg := DefaultUpdaterConfig()
	cfg.Retry = fastRetry()

	var builds atomic.Int64
	build := func(ctx context.Context, in *core.Input, v uint64) (Aligner, error) {
		builds.Add(1)
		return stubBuild(ctx, in, v)
	}
	h := newMutHarness(t, build, cfg)

	robust.Arm(robust.Fault{Site: FaultSwap})
	status, body, _ := postMutate(t, h.ts,
		`{"mutations":[{"op":"remove_triple","kg":2,"head":"r:a","rel":"rel","tail":"r:b"}]}`)
	if status != http.StatusOK {
		t.Fatalf("mutate status %d: %s", status, body)
	}
	waitFor(t, func() bool { return h.upd.Version() == 1 })
	if h.srv.Stale() {
		t.Fatal("transient swap fault left the engine stale")
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("build ran %d times, want 2 (original + retry)", got)
	}
	if got := h.reg.Counter("serve.rebuild.failures").Value(); got != 0 {
		t.Fatalf("failures counter %d after recovered retry, want 0", got)
	}
	if got := h.reg.Counter("serve.rebuilds").Value(); got != 1 {
		t.Fatalf("rebuilds counter %d, want 1", got)
	}
}

// TestChaosTornWALReplay corrupts the log between "process lifetimes":
// a mid-frame truncation (torn tail) silently drops only the unacknowledged
// suffix, a tail bit-flip likewise, and a mid-log bit-flip — acknowledged
// data damaged — refuses to open rather than serving silently wrong state.
func TestChaosTornWALReplay(t *testing.T) {
	dir := t.TempDir()
	in := mutTestInput()
	fp := BaseFingerprint(in)

	seed := func(path string) {
		t.Helper()
		wlog, _, err := wal.Open(path, fp, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []wal.Mutation{
			{Op: wal.OpAddTriple, KG: 1, Head: "l:a", Rel: "rel", Tail: "l:c"},
			{Op: wal.OpAddSeed, Source: "l:b", Target: "r:b"},
		} {
			if _, _, err := wlog.Append([]wal.Mutation{m}); err != nil {
				t.Fatal(err)
			}
		}
		wlog.Close()
	}

	// Torn tail: cut the file mid-way through the last frame.
	torn := filepath.Join(dir, "torn.wal")
	seed(torn)
	fi, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(torn, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	wlog, info, err := wal.Open(torn, fp, nil)
	if err != nil {
		t.Fatalf("torn tail refused: %v", err)
	}
	if len(info.Records) != 1 || info.TornBytes == 0 {
		t.Fatalf("torn replay: %d records, %d torn bytes; want 1 record and a nonzero cut",
			len(info.Records), info.TornBytes)
	}
	store, err := NewStore(in, info.Records)
	if err != nil {
		t.Fatal(err)
	}
	if store.Seq() != 1 {
		t.Fatalf("store seq %d after torn replay, want 1", store.Seq())
	}
	// The surviving record was applied; the torn one was not.
	snap, _ := store.Snapshot()
	if snap.G1.NumTriples() != in.G1.NumTriples()+1 || len(snap.Seeds) != len(in.Seeds) {
		t.Fatalf("torn replay state: %d triples, %d seeds", snap.G1.NumTriples(), len(snap.Seeds))
	}
	// The log stays writable after truncation: the next append reuses seq 2.
	first, _, err := wlog.Append([]wal.Mutation{{Op: wal.OpAddSeed, Source: "l:c", Target: "r:c"}})
	if err != nil || first != 2 {
		t.Fatalf("append after torn recovery: seq %d err %v, want 2/nil", first, err)
	}
	wlog.Close()

	// Mid-log bit-flip: acknowledged record damaged — must refuse.
	bad := filepath.Join(dir, "midlog.wal")
	seed(bad)
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40 // inside the first frame's payload
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wal.Open(bad, fp, nil); err == nil {
		t.Fatal("mid-log corruption opened silently")
	}
}

// TestChaosReadyzMetricsLifecycle walks satellite 3's contract with a gated
// build: /readyz and /metrics across a full swap lifecycle — during a
// rebuild (old version serves, readiness green), after a failed rebuild
// (stale gauge up, readiness still green), and after a boot-recovery replay
// (version restored from the WAL, staleness cleared).
func TestChaosReadyzMetricsLifecycle(t *testing.T) {
	t.Cleanup(robust.Reset)
	cfg := DefaultUpdaterConfig()
	cfg.Retry = fastRetry()

	gate := make(chan struct{})
	var building atomic.Int64
	build := func(ctx context.Context, in *core.Input, v uint64) (Aligner, error) {
		building.Add(1)
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, robust.Permanent(ctx.Err())
		}
		return stubBuild(ctx, in, v)
	}
	h := newMutHarness(t, build, cfg)

	readyz := func() (int, readyzBody) {
		t.Helper()
		resp, err := h.ts.Client().Get(h.ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rz readyzBody
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
				t.Fatal(err)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return resp.StatusCode, rz
	}

	// Phase 1: mutation accepted, rebuild blocked mid-flight. The old
	// engine keeps serving at version 0 and readiness never flips.
	status, body, _ := postMutate(t, h.ts,
		`{"mutations":[{"op":"add_seed","source":"l:b","target":"r:b"}]}`)
	if status != http.StatusOK {
		t.Fatalf("mutate status %d: %s", status, body)
	}
	waitFor(t, func() bool { return building.Load() == 1 })
	if code, rz := readyz(); code != http.StatusOK || rz.EngineVersion != 0 || rz.Stale {
		t.Fatalf("readyz during rebuild: %d %+v, want 200 at version 0", code, rz)
	}
	if resp, _ := postAlign(t, h.ts.Client(), h.ts.URL, nil, "0"); resp.StatusCode != http.StatusOK ||
		resp.Header.Get("Engine-Version") != "0" {
		t.Fatalf("align during rebuild: status %d version %q, want 200 at version 0",
			resp.StatusCode, resp.Header.Get("Engine-Version"))
	}
	if got := h.reg.Gauge("serve.mutations.pending").Value(); got != 1 {
		t.Fatalf("pending gauge %v during rebuild, want 1", got)
	}

	// Phase 2: the build completes; the swap publishes version 1.
	close(gate)
	waitFor(t, func() bool { return h.srv.EngineVersion() == 1 })
	if code, rz := readyz(); code != http.StatusOK || rz.EngineVersion != 1 || rz.Stale {
		t.Fatalf("readyz after swap: %d %+v, want 200 at version 1", code, rz)
	}
	waitFor(t, func() bool { return h.reg.Gauge("serve.mutations.pending").Value() == 0 })
	snap := h.reg.Snapshot()
	if snap.Counters["serve.rebuilds"] != 1 || snap.Counters["serve.engine.swaps"] < 2 {
		t.Fatalf("metrics after swap: rebuilds=%d swaps=%d",
			snap.Counters["serve.rebuilds"], snap.Counters["serve.engine.swaps"])
	}
	if snap.Gauges["serve.engine.version"] != 1 {
		t.Fatalf("version gauge %v, want 1", snap.Gauges["serve.engine.version"])
	}

	// Phase 3: a terminally failing rebuild leaves readiness green but the
	// stale gauge raised.
	robust.Arm(robust.Fault{Site: FaultRebuild, Count: cfg.Retry.MaxAttempts})
	if _, body, _ := postMutate(t, h.ts,
		`{"mutations":[{"op":"remove_seed","source":"l:b","target":"r:b"}]}`); len(body) == 0 {
		t.Fatal("empty mutate response")
	}
	waitFor(t, func() bool { return h.reg.Counter("serve.rebuild.failures").Value() == 1 })
	if code, rz := readyz(); code != http.StatusOK || !rz.Stale || rz.EngineVersion != 1 {
		t.Fatalf("readyz after failed rebuild: %d %+v, want 200/stale at version 1", code, rz)
	}
	if got := h.reg.Gauge("serve.engine.stale").Value(); got != 1 {
		t.Fatalf("stale gauge %v after failed rebuild, want 1", got)
	}

	// Phase 4: boot recovery. A fresh process replays the same WAL over the
	// same base and comes up at the durable sequence with staleness cleared.
	h.ts.Close()
	h.cancel()
	h.upd.Close()
	h.log.Close()

	in2 := mutTestInput()
	reg2 := obs.NewRegistry()
	wlog2, info2, err := wal.Open(h.walPath, BaseFingerprint(in2), reg2)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer wlog2.Close()
	if len(info2.Records) != 2 {
		t.Fatalf("replayed %d records, want 2", len(info2.Records))
	}
	store2, err := NewStore(in2, info2.Records)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(testServerConfig(), reg2)
	srv2.Publish(newStubAligner(3), store2.Seq())
	if srv2.EngineVersion() != 2 || srv2.Stale() {
		t.Fatalf("boot recovery: version %d stale %v, want 2/false",
			srv2.EngineVersion(), srv2.Stale())
	}
	rec := httptest.NewRecorder()
	srv2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var rz readyzBody
	if err := json.Unmarshal(rec.Body.Bytes(), &rz); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || rz.EngineVersion != 2 || rz.Stale {
		t.Fatalf("readyz after boot recovery: %d %+v, want 200 at version 2", rec.Code, rz)
	}
}

// TestChaosUpdaterGoroutineLifecycle pins that the update subsystem leaks
// nothing: repeated start/mutate/close cycles return the goroutine count to
// baseline.
func TestChaosUpdaterGoroutineLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		func() {
			cfg := DefaultUpdaterConfig()
			cfg.Retry = fastRetry()
			h := newMutHarness(t, stubBuild, cfg)
			status, body, _ := postMutate(t, h.ts,
				`{"mutations":[{"op":"add_triple","kg":2,"head":"r:a","rel":"rel","tail":"r:c"}]}`)
			if status != http.StatusOK {
				t.Fatalf("cycle %d mutate: status %d (%s)", i, status, body)
			}
			waitFor(t, func() bool { return h.upd.Version() == 1 })
			h.ts.Close()
			h.ts.Client().CloseIdleConnections()
			h.cancel()
			h.upd.Close()
			h.log.Close()
		}()
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestChaosKillRecoveryBitIdentity is the acceptance criterion of the
// tentpole: a real pipeline engine rebuilt after a simulated kill -9 —
// fresh process, same WAL, same deterministic base corpus, same persisted
// GCN checkpoint — is bit-identical to the engine the live rebuild
// published, down to the fused matrix and the HTTP response bytes. It also
// pins response bit-identity across an engine swap.
func TestChaosKillRecoveryBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple pipeline runs")
	}
	dir := t.TempDir()
	walPath := filepath.Join(dir, "mutations.wal")
	reg := obs.NewRegistry()

	pipeCfg := core.DefaultConfig()
	gcnCfg := gcn.DefaultConfig()
	gcnCfg.Dim = 16
	gcnCfg.Epochs = 30
	pipeCfg.GCN = gcnCfg
	rb := &Rebuilder{Cfg: pipeCfg, CheckpointPath: filepath.Join(dir, "gcn.ckpt"), Reg: reg}

	// Life 1: cold boot (captures the warm-start checkpoint), one durable
	// mutation batch, live rebuild.
	in := serveTestInput(t)
	wlog, info, err := wal.Open(walPath, BaseFingerprint(in), reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Records) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(info.Records))
	}
	store, err := NewStore(in, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Mutations that keep the entity counts fixed, so the rebuild warm-starts
	// from the persisted checkpoint. The triple rewires two existing
	// entities; the seed links an existing test pair.
	snap0, _ := store.Snapshot()
	e0, e1 := snap0.G1.EntityName(0), snap0.G1.EntityName(1)
	rel0 := snap0.G1.RelationName(0)
	tp := snap0.Tests[0]
	muts := []wal.Mutation{
		{Op: wal.OpAddTriple, KG: 1, Head: e0, Rel: rel0, Tail: e1},
		{Op: wal.OpAddSeed,
			Source: snap0.G1.EntityName(tp.U), Target: snap0.G2.EntityName(tp.V)},
	}

	base, err := rb.Build(context.Background(), snap0, 0)
	if err != nil {
		t.Fatalf("cold build: %v", err)
	}
	if reg.Counter("serve.ckpt.persisted").Value() != 1 {
		t.Fatal("cold build did not persist the warm-start checkpoint")
	}

	if _, _, err := store.Mutate(muts, wlog.Append); err != nil {
		t.Fatalf("mutate: %v", err)
	}
	snap1, seq1 := store.Snapshot()
	live, err := rb.Build(context.Background(), snap1, seq1)
	if err != nil {
		t.Fatalf("live rebuild: %v", err)
	}
	if reg.Counter("serve.rebuild.warm").Value() != 1 {
		t.Fatal("live rebuild did not warm-start from the checkpoint")
	}
	wlog.Close() // kill -9: no graceful anything beyond what's durable

	// Life 2: fresh process. The base corpus is regenerated (deterministic),
	// the WAL replays the acknowledged batch, the checkpoint warm-starts the
	// recovery build.
	in2 := serveTestInput(t)
	wlog2, info2, err := wal.Open(walPath, BaseFingerprint(in2), reg)
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer wlog2.Close()
	if len(info2.Records) != len(muts) || info2.TornBytes != 0 {
		t.Fatalf("replay after kill: %d records, %d torn bytes; want %d/0",
			len(info2.Records), info2.TornBytes, len(muts))
	}
	store2, err := NewStore(in2, info2.Records)
	if err != nil {
		t.Fatal(err)
	}
	snap2, seq2 := store2.Snapshot()
	if seq2 != seq1 {
		t.Fatalf("recovered seq %d, want %d", seq2, seq1)
	}
	recovered, err := rb.Build(context.Background(), snap2, seq2)
	if err != nil {
		t.Fatalf("recovery build: %v", err)
	}
	if reg.Counter("serve.rebuild.warm").Value() != 2 {
		t.Fatal("recovery build did not warm-start from the checkpoint")
	}

	// The fused similarity matrices must agree bit for bit.
	lf, rf := live.(*Partition).fused, recovered.(*Partition).fused
	if lf.Rows != rf.Rows || lf.Cols != rf.Cols {
		t.Fatalf("fused shapes differ: %dx%d vs %dx%d", lf.Rows, lf.Cols, rf.Rows, rf.Cols)
	}
	for i, v := range lf.Data {
		if math.Float64bits(v) != math.Float64bits(rf.Data[i]) {
			t.Fatalf("fused[%d] differs: %x vs %x",
				i, math.Float64bits(v), math.Float64bits(rf.Data[i]))
		}
	}

	// And so must the HTTP responses — including across a live swap: the
	// same server answering before and after Publish(recovered) returns the
	// same bytes, and the version header tracks the swap.
	srv := NewServer(testServerConfig(), nil)
	srv.Publish(live, seq1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fetch := func() (string, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/align", "application/json",
			bytes.NewReader([]byte(`{"sources":["0","5","17","3"]}`)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("align status %d: %s", resp.StatusCode, b)
		}
		return resp.Header.Get("Engine-Version"), b
	}
	_, before := fetch()
	srv.Publish(recovered, seq2)
	_, after := fetch()
	if !bytes.Equal(before, after) {
		t.Fatalf("responses differ across recovery swap:\n%s\n%s", before, after)
	}

	// The mutations must have flowed into the rebuilt pipeline: the
	// structural feature matrix reflects the rewired adjacency and the new
	// seed. (The *fused* matrix may legitimately coincide with the base —
	// adaptive fusion can weight structural to zero on this corpus — so the
	// effect is asserted on the feature that directly sees the mutation.)
	baseMs, liveMs := base.(*Partition).ms, live.(*Partition).ms
	same := true
	for i, v := range baseMs.Data {
		if math.Float64bits(v) != math.Float64bits(liveMs.Data[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("mutated rebuild produced bit-identical structural features — mutations had no effect")
	}
}
