package serve

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"ceaff/internal/core"
	"ceaff/internal/mat"
	"ceaff/internal/match"
)

// Decision is one source's alignment answer.
type Decision struct {
	SourceIndex int    `json:"source_index"`
	Source      string `json:"source"`
	TargetIndex int    `json:"target_index"` // -1 when unmatched
	Target      string `json:"target,omitempty"`
	// Score is the fused similarity of the chosen pair.
	Score float64 `json:"score"`
	// Rank is 1 + the number of targets the source scores strictly higher
	// than the chosen one — 1 means the collective decision agrees with the
	// source's own argmax.
	Rank    int  `json:"rank,omitempty"`
	Matched bool `json:"matched"`
	// Degraded marks a source whose owning partition was unreachable past
	// the router's fault-tolerance chain: the decision is an explicit
	// unmatched placeholder, not an answer. Absent (omitempty) on healthy
	// responses, so full-health bytes are identical across topologies.
	Degraded bool `json:"degraded,omitempty"`
	// Unilateral reports that this decision is what a lone single-source
	// request for the same source would answer: the row is NaN-free and the
	// chosen target is its maximal score with ties toward the lower index.
	// Such decisions are pure functions of (engine version, source row) and
	// therefore admissible to the per-row result cache even when they were
	// computed inside a multi-source batch. Internal — never serialized.
	Unilateral bool `json:"-"`
}

// Candidate is one entry of a source's top-k candidate list.
type Candidate struct {
	TargetIndex int     `json:"target_index"`
	Target      string  `json:"target"`
	Score       float64 `json:"score"`
	Rank        int     `json:"rank"`
	// Features breaks the fused score into the surviving per-feature
	// similarities (keys "structural", "semantic", "string"; degraded
	// features are absent).
	Features map[string]float64 `json:"features"`
}

// Aligner is the query surface the HTTP server drives. Engine is the real
// implementation; tests substitute stubs to steer timing and failures
// deterministically.
type Aligner interface {
	// NumSources is the size of the source universe.
	NumSources() int
	// Resolve maps a client-provided key — a decimal test-source index or
	// a source entity name — to a source index.
	Resolve(key string) (int, bool)
	// AlignCollective aligns the given sources collectively against all
	// targets, honouring ctx cancellation. strategy selects the decision
	// strategy by canonical match name; "" means the engine's default
	// (deferred acceptance). Callers must pass only "" or a member of
	// Strategies() — the HTTP layer validates before dispatch.
	AlignCollective(ctx context.Context, rows []int, strategy string) ([]Decision, error)
	// Strategies lists the canonical decision-strategy names this engine
	// accepts in AlignCollective.
	Strategies() []string
	// AlignGreedy answers from the precomputed greedy ranking — the cheap
	// degraded fallback.
	AlignGreedy(rows []int) []Decision
	// Candidates returns the top-k targets of one source with per-feature
	// score breakdowns.
	Candidates(ctx context.Context, row, k int) ([]Candidate, error)
}

// GroupAligner is a grouped align surface: several independent requests
// answered in one call. No type in this package implements it; every align
// is one AlignCollective call.
//
// Deprecated: kept only because the ceaffbench module's tracing wrapper,
// written for the removed request coalescer, still names it. It goes once
// that reference does.
type GroupAligner interface {
	AlignCollectiveGroups(ctx context.Context, groups [][]int, strategies []string) ([][]Decision, error)
}

// strategyFor resolves a per-request strategy name to a match.Strategy; ""
// maps to nil, the engines' "use the default decision path" sentinel.
func strategyFor(name string) (match.Strategy, error) {
	if name == "" {
		return nil, nil
	}
	return match.ByName(name)
}

// Engine holds the offline pipeline's output in memory and answers online
// queries. It is immutable after construction, so all methods are safe for
// concurrent use.
type Engine struct {
	fused    *mat.Dense
	feats    *core.FeatureSet
	srcNames []string
	tgtNames []string
	byName   map[string]int
	greedy   match.Assignment // precomputed per-source argmax (independent)
	topK     int              // preference truncation for collective queries
	degraded []core.Degradation
}

// NewEngine runs the offline CEAFF pipeline once — feature generation,
// fusion, and the full decision — and freezes the result for serving.
// cfg.PreferenceTopK carries over to per-request collective decisions.
func NewEngine(ctx context.Context, in *core.Input, cfg core.Config) (*Engine, error) {
	fs, err := core.ComputeFeaturesContext(ctx, in, cfg.GCN)
	if err != nil {
		return nil, fmt.Errorf("serve: offline features: %w", err)
	}
	res, err := core.DecideContext(ctx, fs, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: offline decision: %w", err)
	}
	srcNames, tgtNames := testPairNames(in)
	return &Engine{
		fused:    res.Fused,
		feats:    fs,
		srcNames: srcNames,
		tgtNames: tgtNames,
		byName:   nameIndex(srcNames),
		greedy:   match.Greedy(res.Fused),
		topK:     cfg.PreferenceTopK,
		degraded: res.Degraded,
	}, nil
}

// NewStaticEngine freezes an already-computed fused score matrix for
// serving, bypassing the offline pipeline — for precomputed artifacts and
// benchmarks. Source i is named srcNames[i]; target j, tgtNames[j]. feats
// may be nil (candidate breakdowns then carry no per-feature scores).
func NewStaticEngine(fused *mat.Dense, feats *core.FeatureSet, srcNames, tgtNames []string, topK int) (*Engine, error) {
	if fused == nil || fused.Rows != len(srcNames) || fused.Cols != len(tgtNames) {
		return nil, fmt.Errorf("serve: fused shape does not match %d sources x %d targets", len(srcNames), len(tgtNames))
	}
	return &Engine{
		fused:    fused,
		feats:    feats,
		srcNames: srcNames,
		tgtNames: tgtNames,
		byName:   nameIndex(srcNames),
		greedy:   match.Greedy(fused),
		topK:     topK,
	}, nil
}

// testPairNames names the test pairs: source i is in.Tests[i].U in G1,
// target i is in.Tests[i].V in G2.
func testPairNames(in *core.Input) (srcNames, tgtNames []string) {
	srcNames = make([]string, len(in.Tests))
	tgtNames = make([]string, len(in.Tests))
	for i, p := range in.Tests {
		srcNames[i] = in.G1.EntityName(p.U)
		tgtNames[i] = in.G2.EntityName(p.V)
	}
	return srcNames, tgtNames
}

// nameIndex maps source names to rows. On duplicate names the first
// occurrence wins; indices always resolve.
func nameIndex(srcNames []string) map[string]int {
	byName := make(map[string]int, len(srcNames))
	for i, name := range srcNames {
		if _, ok := byName[name]; !ok {
			byName[name] = i
		}
	}
	return byName
}

// resolveSource is every Aligner's key grammar: a decimal source index in
// range, or else a source entity name looked up in byName.
func resolveSource(key string, srcNames []string, byName map[string]int) (int, bool) {
	if i, err := strconv.Atoi(key); err == nil {
		if i >= 0 && i < len(srcNames) {
			return i, true
		}
		return 0, false
	}
	i, ok := byName[key]
	return i, ok
}

// Degraded lists features the offline pipeline dropped; the daemon logs it
// at startup.
func (e *Engine) Degraded() []core.Degradation { return e.degraded }

// NumSources implements Aligner.
func (e *Engine) NumSources() int { return len(e.srcNames) }

// Resolve implements Aligner: keys are decimal source indices or source
// entity names.
func (e *Engine) Resolve(key string) (int, bool) {
	return resolveSource(key, e.srcNames, e.byName)
}

// Strategies implements Aligner: the dense engine accepts every registered
// strategy (Hungarian included — the dense matrix is in memory).
func (e *Engine) Strategies() []string { return match.StrategyNames() }

// AlignCollective implements Aligner via core.AlignRows: the
// requested sources compete for targets under the selected decision
// strategy (deferred acceptance when strategy is ""), exactly as the batch
// pipeline decides, restricted to the queried rows.
func (e *Engine) AlignCollective(ctx context.Context, rows []int, strategy string) ([]Decision, error) {
	st, err := strategyFor(strategy)
	if err != nil {
		return nil, err
	}
	asn, err := core.AlignRows(ctx, e.fused, rows, e.topK, st)
	if err != nil {
		return nil, err
	}
	out := make([]Decision, len(rows))
	for p, row := range rows {
		out[p] = decisionFromRow(e.srcNames, e.tgtNames, row, e.fused.Row(row), asn[p])
	}
	return out, nil
}

// AlignGreedy implements Aligner from the precomputed independent ranking.
func (e *Engine) AlignGreedy(rows []int) []Decision {
	out := make([]Decision, len(rows))
	for p, row := range rows {
		out[p] = decisionFromRow(e.srcNames, e.tgtNames, row, e.fused.Row(row), e.greedy[row])
	}
	return out
}

// rowUnilateral reports whether target j is the answer a lone request for
// this dense row would get: the row is NaN-free and j is its maximal entry
// with ties toward the lower index — the single-row fast-path order of
// core.AlignGathered.
func rowUnilateral(row []float64, j int) bool {
	score := row[j]
	for jj, v := range row {
		if math.IsNaN(v) || v > score || (v == score && jj < j) {
			return false
		}
	}
	return true
}

// Candidates implements Aligner: the top-k fused scores of one source in
// descending order (ties toward the lower target index, matching
// mat.TopKRow), each broken down into the surviving per-feature scores.
func (e *Engine) Candidates(ctx context.Context, row, k int) ([]Candidate, error) {
	if row < 0 || row >= len(e.srcNames) {
		return nil, fmt.Errorf("serve: source %d out of range [0,%d)", row, len(e.srcNames))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var feats featureRow
	if fs := e.feats; fs != nil {
		feats = featureRow{ms: matRowOrNil(fs.Ms, row), mn: matRowOrNil(fs.Mn, row), ml: matRowOrNil(fs.Ml, row)}
	}
	return candidatesFromRows(e.tgtNames, e.fused.Row(row), k, feats), nil
}
