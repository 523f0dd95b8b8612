package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"net/http/httptest"
	"sort"

	"ceaff/internal/align"
	"ceaff/internal/baselines"
	"ceaff/internal/bench"
	"ceaff/internal/blocking"
	"ceaff/internal/core"
	"ceaff/internal/kg"
	"ceaff/internal/serve"
	"ceaff/internal/wal"
)

// The helpers below mirror what `ceaffd -fast` does before it serves, so the
// benchmark's oracle and its traced daemon build the engine ceaffd builds.

// pipelineConfig is ceaffd's offline configuration under -fast with default
// flags.
func pipelineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.GCN = baselines.FastSettings().GCN
	cfg.PreferenceTopK = 0
	cfg.Decision = core.Collective
	return cfg
}

// buildInput generates the corpus of dataset at scale under -fast.
func buildInput(dataset string, scale float64) (*core.Input, error) {
	spec, ok := bench.SpecByName(dataset, scale)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
	spec.Dim = baselines.FastSettings().Dim
	d, err := bench.Generate(spec)
	if err != nil {
		return nil, err
	}
	return &core.Input{G1: d.G1, G2: d.G2, Seeds: d.SeedPairs, Tests: d.TestPairs, Emb1: d.Emb1, Emb2: d.Emb2}, nil
}

// blockedCandidates is ceaffd -blocked's candidate generation with its
// default flags: token and neighbour blocking, padded to 20 candidates.
func blockedCandidates(in *core.Input) blocking.Candidates {
	names := func(g *kg.KG, ids []kg.EntityID) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = g.EntityName(id)
		}
		return out
	}
	srcNames := names(in.G1, align.SourceIDs(in.Tests))
	tgtNames := names(in.G2, align.TargetIDs(in.Tests))
	b := &blocking.Blocker{
		Generators: []blocking.Generator{
			blocking.NewTokenIndex(srcNames, tgtNames, 0),
			blocking.NewNeighborExpansion(in.G1, in.G2, in.Seeds, in.Tests),
		},
		NumTargets:    len(in.Tests),
		MinCandidates: 20,
		Seed:          11,
	}
	return b.Generate()
}

// blockedConfig applies ceaffd's guard against GCN hard-negative mining on
// corpora whose dense seed-by-entity block would exceed 200M cells.
func blockedConfig(in *core.Input, cfg core.Config) core.Config {
	n := in.G1.NumEntities()
	if m := in.G2.NumEntities(); m > n {
		n = m
	}
	if cfg.GCN.HardNegativeEvery > 0 && len(in.Seeds)*n > 200_000_000 {
		cfg.GCN.HardNegativeEvery = 0
	}
	return cfg
}

// referenceAligner builds w's reference engine in this process: a dense
// Engine for every topology but blocked-batch's SparseEngine. The router
// fleet is pinned byte-identical to the dense engine over the same corpus.
func referenceAligner(ctx context.Context, w *workload, in *core.Input) (serve.Aligner, error) {
	cfg := pipelineConfig()
	if w.blocked {
		return serve.NewSparseEngine(ctx, in, blockedConfig(in, cfg), blockedCandidates(in))
	}
	return serve.NewEngine(ctx, in, cfg)
}

// versionAligners rebuilds the engine ceaffd -wal published at each of
// versions, replaying the run's log over the base corpus and warm-starting
// from the run's checkpoint exactly as the daemon's rebuilder did. Version 0
// is the base engine, built cold.
func versionAligners(ctx context.Context, in *core.Input, walPath string, versions []uint64) (map[uint64]serve.Aligner, error) {
	lg, info, err := wal.Open(walPath, serve.BaseFingerprint(in), nil)
	if err != nil {
		return nil, fmt.Errorf("oracle: reopen wal: %w", err)
	}
	lg.Close()
	out := make(map[uint64]serve.Aligner, len(versions))
	rb := &serve.Rebuilder{Cfg: pipelineConfig(), CheckpointPath: walPath + ".ckpt"}
	for _, v := range versions {
		if v == 0 {
			a, err := serve.NewEngine(ctx, in, pipelineConfig())
			if err != nil {
				return nil, err
			}
			out[0] = a
			continue
		}
		k := sort.Search(len(info.Records), func(i int) bool { return info.Records[i].Seq > v })
		store, err := serve.NewStore(in, info.Records[:k])
		if err != nil {
			return nil, err
		}
		snap, seq := store.Snapshot()
		if seq != v {
			return nil, fmt.Errorf("oracle: served version %d is not a logged sequence number (log ends at %d)", v, seq)
		}
		a, err := rb.Build(ctx, snap, v)
		if err != nil {
			return nil, err
		}
		out[v] = a
	}
	return out, nil
}

// oracle answers requests from a reference engine through an in-process
// serve.Server with caching and coalescing off, so its bytes are what every
// topology must send.
type oracle struct {
	h    http.Handler
	memo map[string]uint64
}

func newOracle(a serve.Aligner) *oracle {
	cfg := serve.DefaultServerConfig()
	cfg.CoalesceWindow = 0
	cfg.CacheSize = 0
	srv := serve.NewServer(cfg, nil)
	srv.SetAligner(a)
	return &oracle{h: srv.Handler(), memo: map[string]uint64{}}
}

// hash returns the FNV-1a hash of the reference response body for o.
func (or *oracle) hash(o *op) (uint64, error) {
	key := o.key()
	if h, ok := or.memo[key]; ok {
		return h, nil
	}
	req, err := o.request("http://oracle")
	if err != nil {
		return 0, err
	}
	rec := httptest.NewRecorder()
	or.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("oracle: %s answered %d: %s", key, rec.Code, rec.Body.String())
	}
	h := fnv.New64a()
	h.Write(rec.Body.Bytes())
	or.memo[key] = h.Sum64()
	return or.memo[key], nil
}

// judge marks every record that failed: transport errors, non-200 answers
// (sheds included), partial answers from a healthy fleet, and reads whose
// bytes differ from the reference engine's at the version they report. A
// response may report the version before the one that computed it (the
// header is stamped before the engine is loaded, so a hot-swap can fall in
// between); it then must match the next published version. It returns the
// number of reads compared byte for byte.
func judge(recs []record, oracles map[uint64]*oracle) (int, error) {
	var versions []uint64
	for v := range oracles {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(a, b int) bool { return versions[a] < versions[b] })
	compared := 0
	for i := range recs {
		r := &recs[i]
		switch {
		case r.err != "":
			r.failed, r.why = true, r.err
		case r.status != http.StatusOK:
			r.failed, r.why = true, fmt.Sprintf("http %d", r.status)
		case r.partial:
			r.failed, r.why = true, "Engine-Partial from a healthy fleet"
		}
		if r.failed || !r.op.read() {
			continue
		}
		k := sort.Search(len(versions), func(j int) bool { return versions[j] >= r.version })
		if k == len(versions) || versions[k] != r.version {
			r.failed, r.why = true, fmt.Sprintf("served at unknown engine version %d", r.version)
			continue
		}
		ok := false
		for _, v := range versions[k:min(k+2, len(versions))] {
			want, err := oracles[v].hash(r.op)
			if err != nil {
				return compared, err
			}
			if want == r.hash {
				ok = true
				break
			}
		}
		compared++
		if !ok {
			r.failed, r.why = true, "response bytes differ from the reference engine"
		}
	}
	return compared, nil
}

func logFailures(recs []record) {
	shown := 0
	for i := range recs {
		if r := &recs[i]; r.failed {
			if shown < 5 {
				log.Printf("failed %s op %s: %s", phaseNames[r.phase], r.op.key(), r.why)
			}
			shown++
		}
	}
	if shown > 5 {
		log.Printf("... and %d more failed operations", shown-5)
	}
}
