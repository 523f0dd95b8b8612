// Benchmark harness: one testing.B benchmark per table of the paper's
// evaluation section, plus micro-benchmarks for the hot kernels. Table
// benchmarks run the same code paths as cmd/experiments at a reduced scale,
// so `go test -bench=Table` regenerates every reported artifact.
package ceaff

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"ceaff/internal/baselines"
	"ceaff/internal/bench"
	"ceaff/internal/blocking"
	"ceaff/internal/core"
	"ceaff/internal/experiments"
	"ceaff/internal/fusion"
	"ceaff/internal/gcn"
	"ceaff/internal/mat"
	"ceaff/internal/match"
	"ceaff/internal/obs"
	"ceaff/internal/rng"
	"ceaff/internal/sample"
	"ceaff/internal/serve"
	"ceaff/internal/strsim"
	"ceaff/internal/transe"
)

// benchOptions are the experiment settings used by the table benchmarks:
// small enough for a bench loop, large enough to exercise every code path.
func benchOptions() experiments.Options {
	return experiments.Options{Scale: 0.05, Fast: true}
}

func BenchmarkTable2DatasetGen(b *testing.B) {
	b.ReportAllocs()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 9 {
			b.Fatal("short table")
		}
	}
}

func BenchmarkTable3CrossLingual(b *testing.B) {
	b.ReportAllocs()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4MonoLingual(b *testing.B) {
	b.ReportAllocs()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Ablation(b *testing.B) {
	b.ReportAllocs()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6Ranking(b *testing.B) {
	b.ReportAllocs()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInput generates one mid-size dataset for the micro-benchmarks.
func benchInput(b *testing.B) *core.Input {
	b.Helper()
	spec, ok := bench.SpecByName(bench.SRPRSEnFr, 0.3)
	if !ok {
		b.Fatal("unknown spec")
	}
	spec.Dim = 16
	d, err := bench.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	return &core.Input{
		G1: d.G1, G2: d.G2,
		Seeds: d.SeedPairs, Tests: d.TestPairs,
		Emb1: d.Emb1, Emb2: d.Emb2,
	}
}

func BenchmarkCEAFFPipeline(b *testing.B) {
	b.ReportAllocs()
	in := benchInput(b)
	cfg := core.DefaultConfig()
	cfg.GCN = baselines.FastSettings().GCN
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(in, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGCNTraining(b *testing.B) {
	b.ReportAllocs()
	in := benchInput(b)
	cfg := gcn.DefaultConfig()
	cfg.Dim = 16
	cfg.Epochs = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gcn.Train(in.G1, in.G2, in.Seeds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransETraining(b *testing.B) {
	b.ReportAllocs()
	in := benchInput(b)
	cfg := transe.DefaultConfig()
	cfg.Dim = 16
	cfg.Epochs = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transe.Train(in.G1.NumEntities(), in.G1.NumRelations(), in.G1.Triples, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelLevenshteinMatrix(b *testing.B) {
	b.ReportAllocs()
	in := benchInput(b)
	var src, tgt []string
	for _, p := range in.Tests {
		src = append(src, in.G1.EntityName(p.U))
		tgt = append(tgt, in.G2.EntityName(p.V))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strsim.Matrix(src, tgt)
	}
}

func randomSim(n int, seed uint64) *mat.Dense {
	s := rng.New(seed)
	m := mat.NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = s.Float64()
	}
	return m
}

func BenchmarkKernelDeferredAcceptance(b *testing.B) {
	b.ReportAllocs()
	sim := randomSim(500, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.DeferredAcceptance(sim)
	}
}

func BenchmarkKernelHungarian(b *testing.B) {
	b.ReportAllocs()
	sim := randomSim(200, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.Hungarian(sim)
	}
}

func BenchmarkKernelAdaptiveFusion(b *testing.B) {
	b.ReportAllocs()
	ms := []*mat.Dense{randomSim(500, 3), randomSim(500, 4), randomSim(500, 5)}
	opt := fusion.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fusion.AdaptiveWeights(ms, opt)
	}
}

func BenchmarkKernelGreedyOneToOne(b *testing.B) {
	b.ReportAllocs()
	sim := randomSim(500, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.GreedyOneToOne(sim)
	}
}

// The auction benchmarks share one seed per shape with the Hungarian
// reference below, so the headline auction-vs-Hungarian ratio compares the
// same matrix, not merely the same size.
func benchAuction(b *testing.B, n int) {
	b.ReportAllocs()
	sim := randomSim(n, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.Auction(sim)
	}
}

func BenchmarkKernelAuctionSmall(b *testing.B)  { benchAuction(b, 300) }
func BenchmarkKernelAuctionMedium(b *testing.B) { benchAuction(b, 1000) }
func BenchmarkKernelAuctionLarge(b *testing.B)  { benchAuction(b, 2000) }

// BenchmarkKernelHungarianLarge is the optimal-assignment reference at the
// auction's large shape (same matrix as BenchmarkKernelAuctionLarge).
func BenchmarkKernelHungarianLarge(b *testing.B) {
	b.ReportAllocs()
	sim := randomSim(2000, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.Hungarian(sim)
	}
}

// benchStrategy times one registered decision strategy through the Strategy
// interface — the dispatch the core pipeline and the serving layer use.
func benchStrategy(b *testing.B, name string, n int) {
	b.ReportAllocs()
	st, err := match.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	sim := randomSim(n, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Decide(sim, 0)
	}
}

func BenchmarkStrategyGreedySmall(b *testing.B)     { benchStrategy(b, "greedy", 200) }
func BenchmarkStrategyGreedyMedium(b *testing.B)    { benchStrategy(b, "greedy", 500) }
func BenchmarkStrategyGreedyLarge(b *testing.B)     { benchStrategy(b, "greedy", 1000) }
func BenchmarkStrategyDASmall(b *testing.B)         { benchStrategy(b, "da", 200) }
func BenchmarkStrategyDAMedium(b *testing.B)        { benchStrategy(b, "da", 500) }
func BenchmarkStrategyDALarge(b *testing.B)         { benchStrategy(b, "da", 1000) }
func BenchmarkStrategyGreedy11Small(b *testing.B)   { benchStrategy(b, "greedy11", 200) }
func BenchmarkStrategyGreedy11Medium(b *testing.B)  { benchStrategy(b, "greedy11", 500) }
func BenchmarkStrategyGreedy11Large(b *testing.B)   { benchStrategy(b, "greedy11", 1000) }
func BenchmarkStrategyHungarianSmall(b *testing.B)  { benchStrategy(b, "hungarian", 200) }
func BenchmarkStrategyHungarianMedium(b *testing.B) { benchStrategy(b, "hungarian", 500) }
func BenchmarkStrategyHungarianLarge(b *testing.B)  { benchStrategy(b, "hungarian", 1000) }
func BenchmarkStrategyAuctionSmall(b *testing.B)    { benchStrategy(b, "auction", 200) }
func BenchmarkStrategyAuctionMedium(b *testing.B)   { benchStrategy(b, "auction", 500) }
func BenchmarkStrategyAuctionLarge(b *testing.B)    { benchStrategy(b, "auction", 1000) }

func BenchmarkBlockedPipeline(b *testing.B) {
	b.ReportAllocs()
	in := benchInput(b)
	cfg := core.DefaultConfig()
	cfg.GCN = baselines.FastSettings().GCN
	srcNames := make([]string, len(in.Tests))
	tgtNames := make([]string, len(in.Tests))
	for i, p := range in.Tests {
		srcNames[i] = in.G1.EntityName(p.U)
		tgtNames[i] = in.G2.EntityName(p.V)
	}
	blocker := &blocking.Blocker{
		Generators: []blocking.Generator{
			blocking.NewTokenIndex(srcNames, tgtNames, 0),
			blocking.NewNeighborExpansion(in.G1, in.G2, in.Seeds, in.Tests),
		},
		NumTargets: len(in.Tests),
	}
	cands := blocker.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunBlocked(in, cfg, cands); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRank(b *testing.B) {
	b.ReportAllocs()
	in := benchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sample.PageRank(in.G1, 0.85, 30)
	}
}

func BenchmarkSRPRSSampling(b *testing.B) {
	b.ReportAllocs()
	in := benchInput(b)
	opt := sample.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sample.Sample(in.G1, in.G1.NumEntities()/3, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelCosineSimMatrix(b *testing.B) {
	b.ReportAllocs()
	s := rng.New(6)
	a := mat.NewDense(500, 48)
	c := mat.NewDense(500, 48)
	for i := range a.Data {
		a.Data[i] = s.Norm()
	}
	for i := range c.Data {
		c.Data[i] = s.Norm()
	}
	mat.CosineSim(a, c) // warm the scratch pool: measure steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.CosineSim(a, c)
	}
}

// randomEmb returns a rows×dim matrix of standard normals, the operand shape
// of the tiled-kernel micro-benchmarks.
func randomEmb(rows, dim int, seed uint64) *mat.Dense {
	s := rng.New(seed)
	m := mat.NewDense(rows, dim)
	for i := range m.Data {
		m.Data[i] = s.Norm()
	}
	return m
}

// The KernelTiled*/KernelNaive* pairs benchmark the cache-tiled kernels
// against the retained naive references at small, medium and large shapes.
// The naive counterparts exist only at the large shape, where the cache
// effects the tiling targets actually show.

// benchKernel times f over the operand pair, with one untimed warm-up call
// so the scratch pool and worker pool are in steady state when measurement
// starts (benchtime 1x would otherwise charge cold-start allocations to the
// kernel).
func benchKernel(b *testing.B, a, c *mat.Dense, f func(a, c *mat.Dense) *mat.Dense) {
	b.Helper()
	b.ReportAllocs()
	f(a, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(a, c)
	}
}

func benchMulT(b *testing.B, rows, dim int, f func(a, c *mat.Dense) *mat.Dense) {
	b.Helper()
	benchKernel(b, randomEmb(rows, dim, 11), randomEmb(rows, dim, 12), f)
}

func BenchmarkKernelTiledMulTSmall(b *testing.B)  { benchMulT(b, 100, 32, mat.MulT) }
func BenchmarkKernelTiledMulTMedium(b *testing.B) { benchMulT(b, 500, 64, mat.MulT) }
func BenchmarkKernelTiledMulTLarge(b *testing.B)  { benchMulT(b, 1500, 128, mat.MulT) }
func BenchmarkKernelNaiveMulTLarge(b *testing.B)  { benchMulT(b, 1500, 128, mat.NaiveMulT) }

func benchMul(b *testing.B, n, dim int, f func(a, c *mat.Dense) *mat.Dense) {
	b.Helper()
	benchKernel(b, randomEmb(n, dim, 13), randomEmb(dim, n, 14), f)
}

func BenchmarkKernelTiledMulMedium(b *testing.B) { benchMul(b, 500, 64, mat.Mul) }
func BenchmarkKernelTiledMulLarge(b *testing.B)  { benchMul(b, 1200, 128, mat.Mul) }
func BenchmarkKernelNaiveMulLarge(b *testing.B)  { benchMul(b, 1200, 128, mat.NaiveMul) }

func benchTMul(b *testing.B, rows, dim int, f func(a, c *mat.Dense) *mat.Dense) {
	b.Helper()
	benchKernel(b, randomEmb(rows, dim, 15), randomEmb(rows, dim, 16), f)
}

func BenchmarkKernelTiledTMulMedium(b *testing.B) { benchTMul(b, 2000, 64, mat.TMul) }
func BenchmarkKernelTiledTMulLarge(b *testing.B)  { benchTMul(b, 4000, 128, mat.TMul) }
func BenchmarkKernelNaiveTMulLarge(b *testing.B)  { benchTMul(b, 4000, 128, mat.NaiveTMul) }

func benchCosine(b *testing.B, rows, dim int, f func(a, c *mat.Dense) *mat.Dense) {
	b.Helper()
	benchKernel(b, randomEmb(rows, dim, 17), randomEmb(rows, dim, 18), f)
}

func BenchmarkKernelTiledCosineSmall(b *testing.B)  { benchCosine(b, 100, 32, mat.CosineSim) }
func BenchmarkKernelTiledCosineMedium(b *testing.B) { benchCosine(b, 500, 64, mat.CosineSim) }
func BenchmarkKernelTiledCosineLarge(b *testing.B)  { benchCosine(b, 1500, 128, mat.CosineSim) }
func BenchmarkKernelNaiveCosineLarge(b *testing.B)  { benchCosine(b, 1500, 128, mat.NaiveCosineSim) }

func BenchmarkKernelTopKRow(b *testing.B) {
	b.ReportAllocs()
	sim := randomSim(800, 19)
	mat.TopKRow(sim, 10) // warm the scratch pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.TopKRow(sim, 10)
	}
}

func BenchmarkKernelCSLS(b *testing.B) {
	b.ReportAllocs()
	sim := randomSim(500, 20)
	mat.CSLS(sim, 10) // warm the scratch pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.CSLS(sim, 10)
	}
}

// randomCSR builds a rows×cols sparse matrix with roughly nnz random
// entries, the operand shape of the SpMM micro-benchmarks.
func randomCSR(rows, cols, nnz int, seed uint64) *mat.CSR {
	s := rng.New(seed)
	entries := make([]mat.COO, nnz)
	for i := range entries {
		entries[i] = mat.COO{Row: s.Intn(rows), Col: s.Intn(cols), Val: s.Norm()}
	}
	return mat.NewCSR(rows, cols, entries)
}

// The KernelSpMM*/KernelSpMMSerial* pairs benchmark the pooled sparse·dense
// kernels against the retained serial references at adjacency-like shapes
// (square, ~8 non-zeros per row — the GCN propagation workload). Serial
// counterparts exist only at the large shape, where fan-out pays off.

func benchSpMM(b *testing.B, n, dim int, f func(s *mat.CSR, d *mat.Dense) *mat.Dense) {
	b.Helper()
	b.ReportAllocs()
	sp := randomCSR(n, n, n*8, 21)
	d := randomEmb(n, dim, 22)
	f(sp, d) // warm the worker pool and transpose cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(sp, d)
	}
}

func mulDense(s *mat.CSR, d *mat.Dense) *mat.Dense       { return s.MulDense(d) }
func tMulDense(s *mat.CSR, d *mat.Dense) *mat.Dense      { return s.TMulDense(d) }
func naiveMulDense(s *mat.CSR, d *mat.Dense) *mat.Dense  { return s.NaiveMulDense(d) }
func naiveTMulDense(s *mat.CSR, d *mat.Dense) *mat.Dense { return s.NaiveTMulDense(d) }

func BenchmarkKernelSpMMSmall(b *testing.B)        { benchSpMM(b, 200, 32, mulDense) }
func BenchmarkKernelSpMMMedium(b *testing.B)       { benchSpMM(b, 2000, 64, mulDense) }
func BenchmarkKernelSpMMLarge(b *testing.B)        { benchSpMM(b, 8000, 128, mulDense) }
func BenchmarkKernelSpMMSerialLarge(b *testing.B)  { benchSpMM(b, 8000, 128, naiveMulDense) }
func BenchmarkKernelSpMMTSmall(b *testing.B)       { benchSpMM(b, 200, 32, tMulDense) }
func BenchmarkKernelSpMMTMedium(b *testing.B)      { benchSpMM(b, 2000, 64, tMulDense) }
func BenchmarkKernelSpMMTLarge(b *testing.B)       { benchSpMM(b, 8000, 128, tMulDense) }
func BenchmarkKernelSpMMTSerialLarge(b *testing.B) { benchSpMM(b, 8000, 128, naiveTMulDense) }

// The TrainEpoch*/TrainEpochSerial* pair times GCN training on the medium
// benchmark dataset through the parallel layer and through the retained
// serial path (Config.ForceSerial). Their ratio is the PR's headline
// training speedup; both produce bit-identical models, so the diff is pure
// scheduling.
func benchTrainEpoch(b *testing.B, serial bool) {
	b.Helper()
	b.ReportAllocs()
	in := benchInput(b)
	cfg := gcn.DefaultConfig()
	cfg.Dim = 32
	cfg.Epochs = 10
	cfg.HardNegativeEvery = 5
	cfg.ForceSerial = serial
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gcn.Train(in.G1, in.G2, in.Seeds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainEpochMedium(b *testing.B)       { benchTrainEpoch(b, false) }
func BenchmarkTrainEpochSerialMedium(b *testing.B) { benchTrainEpoch(b, true) }

// ---- Serving-path benchmarks ----
//
// The BenchmarkServeAlign* family drives the daemon's HTTP handler with
// 64 concurrent clients issuing single-source align queries over a 512 x
// 8192 engine — large enough that answering from scratch does real work.
// ZeroAlloc decides every query (no cache); Sharded does the same through
// the in-process partitioned Router; HeavyTraffic is the production
// default (versioned cache + arena encoder). One benchmark op is a full
// sweep of benchServeOps requests, so the suite stays meaningful at the 3x
// benchtime the regression gate uses (per-request timing at 3 iterations
// would measure nothing but warm-up). The CI benchdiff gate watches these;
// req/s is also reported for direct throughput comparison.

const (
	benchServeSources = 512
	benchServeTargets = 8192
	benchServeClients = 64
	benchServeOps     = 4096
)

func benchServeEngine(b *testing.B) *serve.Partition {
	fused := mat.NewDense(benchServeSources, benchServeTargets)
	s := uint64(9)
	for i := range fused.Data {
		s = s*6364136223846793005 + 1442695040888963407
		fused.Data[i] = float64((s>>33)%1021) / 1021
	}
	src := make([]string, benchServeSources)
	for i := range src {
		src[i] = "src-" + strconv.Itoa(i)
	}
	tgt := make([]string, benchServeTargets)
	for j := range tgt {
		tgt[j] = "tgt-" + strconv.Itoa(j)
	}
	e, err := serve.NewStaticEngine(fused, nil, src, tgt, 0)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func benchServeAlign(b *testing.B, a serve.Aligner, tune func(*serve.Config)) {
	cfg := serve.DefaultServerConfig()
	cfg.MaxInFlight = 2 * benchServeClients
	cfg.MaxQueue = 8 * benchServeClients
	cfg.CacheSize = 0
	tune(&cfg)
	srv := serve.NewServer(cfg, obs.NewRegistry())
	srv.SetAligner(a)
	h := srv.Handler()

	bodies := make([][]byte, benchServeSources)
	for i := range bodies {
		bodies[i] = []byte(`{"sources":["` + strconv.Itoa(i) + `"]}`)
	}
	post := func(body []byte) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/align", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	// Warm the cache (when enabled) so the steady state is measured.
	for _, body := range bodies {
		if code := post(body); code != http.StatusOK {
			b.Fatalf("warm-up status %d", code)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		var next atomic.Int64
		var bad atomic.Int64
		for w := 0; w < benchServeClients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					n := next.Add(1)
					if n > benchServeOps {
						return
					}
					if code := post(bodies[int(n)%benchServeSources]); code != http.StatusOK {
						bad.Add(1)
						return
					}
				}
			}()
		}
		wg.Wait()
		if bad.Load() != 0 {
			b.Fatalf("%d requests failed", bad.Load())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*benchServeOps/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeAlignZeroAlloc is the uncached path: every query runs the
// collective decision, and the response bytes are built in pooled scratch.
func BenchmarkServeAlignZeroAlloc(b *testing.B) {
	benchServeAlign(b, benchServeEngine(b), func(cfg *serve.Config) {})
}

// BenchmarkServeAlignSharded is ZeroAlloc's load through the `-shards 4`
// topology: a Router over four in-process partitions gathers each query's
// row, then decides centrally.
func BenchmarkServeAlignSharded(b *testing.B) {
	rt, err := serve.NewShardedRouter(benchServeEngine(b), 4, obs.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	benchServeAlign(b, rt, func(cfg *serve.Config) {})
}

// BenchmarkServeAlignHeavyTraffic is the shipped default: versioned result
// cache + arena encoder.
func BenchmarkServeAlignHeavyTraffic(b *testing.B) {
	benchServeAlign(b, benchServeEngine(b), func(cfg *serve.Config) {
		cfg.CacheSize = 4 * benchServeSources
	})
}

// staticBenchAligner answers instantly from precomputed decisions, so a
// handler benchmark over it measures transport + decode + encode alone —
// the "response path" the arena encoder is meant to de-allocate.
type staticBenchAligner struct {
	dec []serve.Decision
}

func (a *staticBenchAligner) NumSources() int { return len(a.dec) }

func (a *staticBenchAligner) Resolve(key string) (int, bool) {
	i, err := strconv.Atoi(key)
	if err != nil || i < 0 || i >= len(a.dec) {
		return 0, false
	}
	return i, true
}

func (a *staticBenchAligner) Strategies() []string { return match.StrategyNames() }

func (a *staticBenchAligner) AlignCollective(_ context.Context, rows []int, _ string) ([]serve.Decision, error) {
	out := make([]serve.Decision, len(rows))
	for p, r := range rows {
		out[p] = a.dec[r]
	}
	return out, nil
}

func (a *staticBenchAligner) AlignGreedy(rows []int) []serve.Decision {
	out, _ := a.AlignCollective(context.Background(), rows, "")
	return out
}

func (a *staticBenchAligner) Candidates(_ context.Context, row, k int) ([]serve.Candidate, error) {
	return nil, nil
}

// nullResponseWriter discards the response body, so the benchmark charges
// encoding, not recorder buffering.
type nullResponseWriter struct {
	hdr http.Header
}

func (w *nullResponseWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header, 2)
	}
	return w.hdr
}
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// BenchmarkServeEncodeArena pins the response-encoding cost alone: a
// 64-decision response over an instant aligner, caching off, with a reused
// request object and a discarding writer so per-op allocations are the
// handler's own (decode + align copy + encode).
// BenchmarkEncodeAlignResponseStdlib in internal/serve keeps the
// encoding/json comparison.
func BenchmarkServeEncodeArena(b *testing.B) {
	dec := make([]serve.Decision, benchServeSources)
	for i := range dec {
		dec[i] = serve.Decision{
			SourceIndex: i,
			Source:      "src-" + strconv.Itoa(i),
			TargetIndex: (i * 31) % benchServeSources,
			Target:      "tgt-" + strconv.Itoa((i*31)%benchServeSources),
			Score:       float64(i%97) / 97,
			Rank:        1 + i%5,
			Matched:     true,
		}
	}
	cfg := serve.DefaultServerConfig()
	cfg.CacheSize = 0
	srv := serve.NewServer(cfg, obs.NewRegistry())
	srv.SetAligner(&staticBenchAligner{dec: dec})
	h := srv.Handler()

	keys := ""
	for i := 0; i < 64; i++ {
		if i > 0 {
			keys += ","
		}
		keys += `"` + strconv.Itoa(i*7) + `"`
	}
	body := []byte(`{"sources":[` + keys + `]}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/align", rd)
	w := &nullResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A block of requests per op, for the same 3x-benchtime stability
		// reason as the ServeAlign sweeps.
		for j := 0; j < 256; j++ {
			rd.Reset(body)
			h.ServeHTTP(w, req)
		}
	}
}
