package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"ceaff/internal/bench"
	"ceaff/internal/core"
	"ceaff/internal/gcn"
	"ceaff/internal/mat"
	"ceaff/internal/match"
	"ceaff/internal/obs"
)

// literalEngine builds a whole-space Partition directly from matrices — no
// pipeline run — for white-box query tests. The string feature aliases the
// fused matrix; the other features are absent.
func literalEngine(fused *mat.Dense) *Partition {
	src := make([]string, fused.Rows)
	tgt := make([]string, fused.Cols)
	for i := range src {
		src[i] = string(rune('a' + i))
	}
	for j := range tgt {
		tgt[j] = string(rune('A' + j))
	}
	return wholeSpace(fused, nil, nil, fused, src, tgt, 0)
}

func TestEngineResolve(t *testing.T) {
	e := literalEngine(mat.FromRows([][]float64{{0.9, 0.1}, {0.2, 0.8}}))
	for key, want := range map[string]int{"0": 0, "1": 1, "a": 0, "b": 1} {
		got, ok := e.Resolve(key)
		if !ok || got != want {
			t.Errorf("Resolve(%q) = %d,%v, want %d,true", key, got, ok, want)
		}
	}
	for _, key := range []string{"2", "-1", "z", ""} {
		if _, ok := e.Resolve(key); ok {
			t.Errorf("Resolve(%q) succeeded", key)
		}
	}
}

func TestEngineCollectiveVsGreedy(t *testing.T) {
	// Both sources prefer target 0; collectively source 0 wins it, greedily
	// both claim it.
	e := literalEngine(mat.FromRows([][]float64{
		{0.9, 0.2},
		{0.8, 0.7},
	}))
	col, err := e.AlignCollective(context.Background(), []int{0, 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	if col[0].TargetIndex != 0 || col[1].TargetIndex != 1 {
		t.Fatalf("collective targets (%d,%d), want (0,1)", col[0].TargetIndex, col[1].TargetIndex)
	}
	if col[0].Rank != 1 || col[1].Rank != 2 {
		t.Fatalf("collective ranks (%d,%d), want (1,2)", col[0].Rank, col[1].Rank)
	}
	if col[1].Score != 0.7 || col[1].Target != "B" || !col[1].Matched {
		t.Fatalf("collective decision %+v malformed", col[1])
	}

	gr := e.AlignGreedy([]int{0, 1})
	if gr[0].TargetIndex != 0 || gr[1].TargetIndex != 0 {
		t.Fatalf("greedy targets (%d,%d), want (0,0)", gr[0].TargetIndex, gr[1].TargetIndex)
	}
}

func TestEngineCandidates(t *testing.T) {
	e := literalEngine(mat.FromRows([][]float64{
		{0.1, 0.9, 0.5},
		{0.2, 0.3, 0.4},
	}))
	cands, err := e.Candidates(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 || cands[0].TargetIndex != 1 || cands[1].TargetIndex != 2 {
		t.Fatalf("candidates %+v, want targets 1 then 2", cands)
	}
	if cands[0].Rank != 1 || cands[0].Score != 0.9 || cands[0].Target != "B" {
		t.Fatalf("top candidate %+v malformed", cands[0])
	}
	// The only surviving feature is the string matrix (aliased to fused).
	if v, ok := cands[0].Features["string"]; !ok || v != 0.9 {
		t.Fatalf("feature breakdown %v, want string=0.9", cands[0].Features)
	}
	if _, ok := cands[0].Features["structural"]; ok {
		t.Fatal("degraded feature present in breakdown")
	}
	if _, err := e.Candidates(context.Background(), 99, 2); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Candidates(ctx, 0, 2); err == nil {
		t.Fatal("cancelled candidates call succeeded")
	}
}

// TestWholeSpacePartitionReference pins the whole-space Partition — the
// reference every bit-identity suite compares against — to the primitives
// it is built from: core.AlignRows over the raw fused matrix for every
// strategy, match.Greedy for the fallback and mat.TopKRow for candidates.
// The matrix has coarse (tied) scores and one row holding a NaN; row sets
// are random, at preference truncation topK 0 and > 0.
func TestWholeSpacePartitionReference(t *testing.T) {
	const n, m, nanRow = 20, 14, 5
	r := rand.New(rand.NewSource(7))
	fused := mat.NewDense(n, m)
	for i := range fused.Data {
		fused.Data[i] = float64(r.Intn(40)) / 40
	}
	fused.Row(nanRow)[3] = math.NaN()
	src := make([]string, n)
	for i := range src {
		src[i] = "s" + string(rune('a'+i))
	}
	tgt := make([]string, m)
	for j := range tgt {
		tgt[j] = "t" + string(rune('a'+j))
	}
	greedy := match.Greedy(fused)
	ctx := context.Background()
	sameFloat := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	for _, topK := range []int{0, 3} {
		p, err := NewStaticEngine(fused, &core.FeatureSet{Ms: fused}, src, tgt, topK)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			rows := r.Perm(n)[:1+r.Intn(n)]
			if trial == 0 {
				rows = []int{nanRow}
			}
			for _, name := range append([]string{""}, match.StrategyNames()...) {
				st, err := strategyFor(name)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.AlignRows(ctx, fused, rows, topK, st)
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.AlignCollective(ctx, rows, name)
				if err != nil {
					t.Fatal(err)
				}
				for i, row := range rows {
					d, j := got[i], want[i]
					if d.SourceIndex != row || d.Source != src[row] || d.TargetIndex != j || d.Matched != (j >= 0) {
						t.Fatalf("topK %d strategy %q rows %v: decision %+v, want target %d", topK, name, rows, d, j)
					}
					if j >= 0 && (d.Target != tgt[j] || !sameFloat(d.Score, fused.At(row, j))) {
						t.Fatalf("topK %d strategy %q row %d: decision %+v, want %s at %v", topK, name, row, d, tgt[j], fused.At(row, j))
					}
				}
			}
			for i, d := range p.AlignGreedy(rows) {
				if d.SourceIndex != rows[i] || d.TargetIndex != greedy[rows[i]] {
					t.Fatalf("topK %d greedy row %d: %+v, want target %d", topK, rows[i], d, greedy[rows[i]])
				}
			}
		}
		for row := 0; row < n; row++ {
			rowView := &mat.Dense{Rows: 1, Cols: m, Data: fused.Row(row)}
			for _, k := range []int{1, 4, m} {
				cands, err := p.Candidates(ctx, row, k)
				if err != nil {
					t.Fatal(err)
				}
				top := mat.TopKRow(rowView, k)[0]
				if len(cands) != len(top) {
					t.Fatalf("row %d k %d: %d candidates, want %d", row, k, len(cands), len(top))
				}
				for rank, j := range top {
					c := cands[rank]
					if c.TargetIndex != j || c.Target != tgt[j] || c.Rank != rank+1 ||
						!sameFloat(c.Score, fused.At(row, j)) || !sameFloat(c.Features["structural"], fused.At(row, j)) {
						t.Fatalf("row %d k %d rank %d: %+v, want target %d", row, k, rank+1, c, j)
					}
				}
			}
		}
	}
}

// TestStaticEngineNilFeaturesCandidates pins NewStaticEngine's "feats may
// be nil" contract on the candidates path: top-k entries with empty
// per-feature breakdowns, directly and over HTTP — never a nil dereference
// (which the server's panic isolation would turn into a 500).
func TestStaticEngineNilFeaturesCandidates(t *testing.T) {
	fused := mat.FromRows([][]float64{
		{0.1, 0.9, 0.5},
		{0.2, 0.3, 0.4},
	})
	e, err := NewStaticEngine(fused, nil, []string{"a", "b"}, []string{"A", "B", "C"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := e.Candidates(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 || cands[0].TargetIndex != 1 || cands[1].TargetIndex != 2 {
		t.Fatalf("candidates %+v, want targets 1 then 2", cands)
	}
	for _, c := range cands {
		if len(c.Features) != 0 {
			t.Fatalf("candidate %+v carries features from a feature-less engine", c)
		}
	}

	srv := NewServer(testServerConfig(), obs.NewRegistry())
	srv.SetAligner(e)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/entity/0/candidates?k=2")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("candidates status %d: %s", resp.StatusCode, body)
	}
}

// serveTestInput synthesizes a small dataset for end-to-end engine tests.
func serveTestInput(t *testing.T) *core.Input {
	t.Helper()
	spec := bench.Spec{
		Name: "serve-test", Group: "TEST",
		Style: bench.Dense, Lang: bench.Mono,
		NumPairs: 120, Extra1: 10, Extra2: 15,
		AvgDegree: 5, NumRels: 8,
		EdgeDropout: 0.15, EdgeNoise: 0.1,
		NameNoise: 0.25, WordSwap: 0.3, TransNoise: 0.1, OOVRate: 0.25,
		AttrTypes: 8, AttrCoverage: 0.5,
		Dim: 24, SeedFrac: 0.3, Seed: 42,
	}
	d, err := bench.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Input{G1: d.G1, G2: d.G2, Seeds: d.SeedPairs, Tests: d.TestPairs, Emb1: d.Emb1, Emb2: d.Emb2}
}

func serveTestEngine(t *testing.T) *Partition {
	t.Helper()
	cfg := core.DefaultConfig()
	gcnCfg := gcn.DefaultConfig()
	gcnCfg.Dim = 16
	gcnCfg.Epochs = 30
	cfg.GCN = gcnCfg
	e, err := NewEngine(context.Background(), serveTestInput(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestServeResponseBitIdentity pins the acceptance criterion that the same
// seed and the same query yield byte-identical JSON responses: two engines
// built from scratch behind two servers must answer every endpoint with
// identical bytes. CI runs this under GOMAXPROCS=1 and =4, so the identity
// also holds across parallelism levels.
func TestServeResponseBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("double pipeline run")
	}
	fetch := func(e *Partition) (align, cands, metricsStatus []byte) {
		srv := NewServer(testServerConfig(), nil)
		srv.SetAligner(e)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, err := ts.Client().Post(ts.URL+"/v1/align", "application/json",
			bytes.NewReader([]byte(`{"sources":["0","5","17","3"]}`)))
		if err != nil {
			t.Fatal(err)
		}
		align, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("align status %d: %s", resp.StatusCode, align)
		}
		resp, err = ts.Client().Get(ts.URL + "/v1/entity/7/candidates?k=5")
		if err != nil {
			t.Fatal(err)
		}
		cands, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("candidates status %d: %s", resp.StatusCode, cands)
		}
		return align, cands, nil
	}

	e1 := serveTestEngine(t)
	e2 := serveTestEngine(t)
	align1, cands1, _ := fetch(e1)
	align2, cands2, _ := fetch(e2)
	if !bytes.Equal(align1, align2) {
		t.Fatalf("align responses differ across runs:\n%s\n%s", align1, align2)
	}
	if !bytes.Equal(cands1, cands2) {
		t.Fatalf("candidates responses differ across runs:\n%s\n%s", cands1, cands2)
	}

	// Sanity: the response is a real decision list, not an empty envelope.
	var body alignResponse
	if err := json.Unmarshal(align1, &body); err != nil {
		t.Fatal(err)
	}
	if body.Degraded || len(body.Results) != 4 || !body.Results[0].Matched {
		t.Fatalf("align response malformed: %s", align1)
	}
}
