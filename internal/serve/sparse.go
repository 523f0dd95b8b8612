package serve

import (
	"context"
	"fmt"
	"sort"

	"ceaff/internal/blocking"
	"ceaff/internal/core"
	"ceaff/internal/match"
)

// SparseEngine serves alignment queries from the candidate-first (blocked)
// pipeline: fused scores exist only for blocked candidate pairs, so memory
// stays O(|test|·candidates) and the daemon can serve corpora whose dense
// matrix would not fit. Collective queries run the sparse deferred-
// acceptance decision (core.AlignRowsSparse) restricted to candidate
// lists; ranks and candidate listings are likewise candidate-local, the
// documented contract of blocked mode.
type SparseEngine struct {
	cands    blocking.Candidates
	scores   [][]float64    // fused candidate scores (Result.FusedSparse)
	feats    [3][][]float64 // per-feature candidate scores (nil when degraded)
	srcNames []string
	tgtNames []string
	byName   map[string]int
	greedy   []int // per-source independent argmax over candidates (-1 none)
	topK     int
	degraded []core.Degradation
}

// NewSparseEngine runs the blocked offline pipeline — candidate-restricted
// feature generation, sparse fusion, full decision — and freezes the result
// for serving.
func NewSparseEngine(ctx context.Context, in *core.Input, cfg core.Config, cands blocking.Candidates) (*SparseEngine, error) {
	sf, err := core.ComputeBlockedFeaturesContext(ctx, in, cfg.GCN, cands)
	if err != nil {
		return nil, fmt.Errorf("serve: blocked features: %w", err)
	}
	res, err := core.DecideBlockedContext(ctx, sf, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: blocked decision: %w", err)
	}
	srcNames, tgtNames := testPairNames(in)
	e := &SparseEngine{
		cands:    sf.Cands,
		scores:   res.FusedSparse,
		feats:    sf.Scores,
		srcNames: srcNames,
		tgtNames: tgtNames,
		byName:   nameIndex(srcNames),
		greedy:   make([]int, len(sf.Cands)),
		topK:     cfg.PreferenceTopK,
		degraded: res.Degraded,
	}
	for i, cs := range sf.Cands {
		e.greedy[i] = sparseArgmax(cs, res.FusedSparse[i])
	}
	return e, nil
}

// sparseArgmax picks the best candidate independently: maximal fused score,
// ties toward the lower target index (candidate lists are ascending, so the
// first maximum wins — the same order match.Greedy uses densely).
func sparseArgmax(cands []int, scores []float64) int {
	best, bestScore := -1, 0.0
	for c, j := range cands {
		if best == -1 || scores[c] > bestScore {
			best, bestScore = j, scores[c]
		}
	}
	return best
}

// Degraded lists features the blocked pipeline dropped.
func (e *SparseEngine) Degraded() []core.Degradation { return e.degraded }

// NumSources implements Aligner.
func (e *SparseEngine) NumSources() int { return len(e.srcNames) }

// Resolve implements Aligner with Engine's key grammar.
func (e *SparseEngine) Resolve(key string) (int, bool) {
	return resolveSource(key, e.srcNames, e.byName)
}

// Strategies implements Aligner: the blocked engine accepts only strategies
// that can decide over candidate lists (Hungarian is excluded — it needs
// the dense matrix the blocked pipeline never materializes).
func (e *SparseEngine) Strategies() []string { return match.SparseStrategyNames() }

// AlignCollective implements Aligner via the sparse subset decision.
func (e *SparseEngine) AlignCollective(ctx context.Context, rows []int, strategy string) ([]Decision, error) {
	st, err := strategyFor(strategy)
	if err != nil {
		return nil, err
	}
	asn, err := core.AlignRowsSparse(ctx, e.cands, e.scores, rows, e.topK, st)
	if err != nil {
		return nil, err
	}
	out := make([]Decision, len(rows))
	for p, row := range rows {
		out[p] = e.decision(row, asn[p])
	}
	return out, nil
}

// AlignGreedy implements Aligner from the precomputed candidate argmaxes.
func (e *SparseEngine) AlignGreedy(rows []int) []Decision {
	out := make([]Decision, len(rows))
	for p, row := range rows {
		j := -1
		if row >= 0 && row < len(e.greedy) {
			j = e.greedy[row]
		}
		out[p] = e.decision(row, j)
	}
	return out
}

// candPos finds target j's position in row's ascending candidate list.
func (e *SparseEngine) candPos(row, j int) int {
	cs := e.cands[row]
	i := sort.SearchInts(cs, j)
	if i < len(cs) && cs[i] == j {
		return i
	}
	return -1
}

// decision assembles the Decision for source row matched to target j. Rank
// counts strictly-better candidates only — the blocked pipeline has no
// scores outside the candidate list.
func (e *SparseEngine) decision(row, j int) Decision {
	d := Decision{SourceIndex: row, Source: e.srcNames[row], TargetIndex: -1}
	if j < 0 {
		return d
	}
	c := e.candPos(row, j)
	if c < 0 {
		return d
	}
	score := e.scores[row][c]
	d.TargetIndex = j
	d.Target = e.tgtNames[j]
	d.Score = score
	r := 1
	for _, v := range e.scores[row] {
		if v > score {
			r++
		}
	}
	d.Rank = r
	d.Matched = true
	// Candidate lists are ascending, so positional tie-breaks toward the
	// lower candidate index coincide with lower target index — the same
	// unilateral order as the dense row scan.
	d.Unilateral = rowUnilateral(e.scores[row], c)
	return d
}

// Candidates implements Aligner over the blocked candidate list: top-k by
// fused score, ties toward the lower target index (mat.TopKRow's order),
// with per-feature breakdowns for the surviving features.
func (e *SparseEngine) Candidates(ctx context.Context, row, k int) ([]Candidate, error) {
	if row < 0 || row >= len(e.srcNames) {
		return nil, fmt.Errorf("serve: source %d out of range [0,%d)", row, len(e.srcNames))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k < 1 {
		k = 1
	}
	cs := e.cands[row]
	order := make([]int, len(cs))
	for i := range order {
		order[i] = i
	}
	sc := e.scores[row]
	sort.SliceStable(order, func(a, b int) bool {
		if sc[order[a]] != sc[order[b]] {
			return sc[order[a]] > sc[order[b]]
		}
		return cs[order[a]] < cs[order[b]]
	})
	if k > len(order) {
		k = len(order)
	}
	names := [3]string{"structural", "semantic", "string"}
	out := make([]Candidate, k)
	for r, c := range order[:k] {
		features := map[string]float64{}
		for f := 0; f < 3; f++ {
			if e.feats[f] != nil {
				features[names[f]] = e.feats[f][row][c]
			}
		}
		out[r] = Candidate{
			TargetIndex: cs[c],
			Target:      e.tgtNames[cs[c]],
			Score:       sc[c],
			Rank:        r + 1,
			Features:    features,
		}
	}
	return out, nil
}
