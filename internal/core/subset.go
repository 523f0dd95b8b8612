package core

import (
	"context"
	"fmt"
	"math"

	"ceaff/internal/blocking"
	"ceaff/internal/mat"
	"ceaff/internal/match"
)

// AlignRows runs the collective EA decision over a subset of sources: the
// selected rows of the fused matrix compete for all targets under the same
// deferred-acceptance mechanics as the full pipeline. This is the online
// query path of the serving layer — a batch of requested entities is
// aligned collectively against the whole target space without rerunning
// the offline decision over every source.
//
// rows index fused's rows; the returned assignment is positional (entry p
// is the target chosen for rows[p], -1 if unmatched). topK > 0 truncates
// each source's preference list as in Config.PreferenceTopK. st selects the
// decision strategy; nil means the pipeline default (deferred acceptance).
// Duplicate or out-of-range rows are rejected — a duplicated source would
// compete with itself for its own best target, silently demoting one copy.
//
// The gathered submatrix lives in the pooled scratch arena, so steady-state
// serving traffic does not allocate a fresh decision matrix per request.
//
// Cancellation is cooperative at row granularity during the submatrix
// gather and checked once more before the matching step, mirroring the
// row-chunk granularity of the parallel kernels.
func AlignRows(ctx context.Context, fused *mat.Dense, rows []int, topK int, st match.Strategy) (match.Assignment, error) {
	if fused == nil {
		return nil, fmt.Errorf("core: AlignRows on nil matrix")
	}
	if len(rows) == 0 {
		return match.Assignment{}, nil
	}
	if err := validateRowSet(rows, fused.Rows); err != nil {
		return nil, err
	}
	sub := mat.GetDense(len(rows), fused.Cols)
	defer mat.PutDense(sub)
	for p, r := range rows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		copy(sub.Row(p), fused.Row(r))
	}
	return AlignGathered(ctx, sub, topK, st)
}

// validateRowSet rejects out-of-range and duplicated row indices with the
// same diagnostics for every gather entry point.
func validateRowSet(rows []int, bound int) error {
	seen := make(map[int]int, len(rows))
	for p, r := range rows {
		if r < 0 || r >= bound {
			return fmt.Errorf("core: AlignRows row %d out of range [0,%d)", r, bound)
		}
		if q, dup := seen[r]; dup {
			return fmt.Errorf("core: AlignRows rows %d and %d both select source %d", q, p, r)
		}
		seen[r] = p
	}
	return nil
}

// AlignGathered runs the collective decision over an already-gathered
// preference matrix — the decision half of AlignRows, split out so callers
// that build their own submatrices (the sharded engine's parallel gather,
// the router's fan-out merge) reuse the exact decision path. A nil st
// selects the pipeline default (deferred acceptance).
//
// A single-row matrix short-circuits to a linear argmax scan: deferred
// acceptance over one source degenerates to the source's first preference,
// which is its maximal target with ties toward the lower index — exactly
// mat.TopKRow's order — so the scan is bit-identical to the full machinery
// at a fraction of the cost (no O(C log C) preference sort). The shortcut
// applies only to strategies that advertise Caps().ArgmaxSingle, so
// strategy output stays bit-identical whether or not it fires. Rows
// containing NaN fall through to the full algorithm, whose NaN ordering the
// fast path does not reproduce.
func AlignGathered(ctx context.Context, sub *mat.Dense, topK int, st match.Strategy) (match.Assignment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sub.Rows == 1 && (st == nil || st.Caps().ArgmaxSingle) {
		if j, ok := singleRowChoice(sub.Row(0)); ok {
			return match.Assignment{j}, nil
		}
	}
	if st != nil {
		return st.Decide(sub, topK), nil
	}
	if topK > 0 {
		return match.DeferredAcceptanceTopK(sub, topK), nil
	}
	return match.DeferredAcceptance(sub), nil
}

// singleRowChoice picks the target a lone proposing source ends up with:
// the maximum value, ties toward the lower index (TopKRow's total order).
// ok is false when the row contains NaN, which breaks that total order.
func singleRowChoice(row []float64) (int, bool) {
	if len(row) == 0 {
		return -1, true
	}
	best := 0
	for j, v := range row {
		if math.IsNaN(v) {
			return 0, false
		}
		if v > row[best] {
			best = j
		}
	}
	return best, true
}

// AlignRowsSparse is AlignRows over the blocked pipeline's candidate
// structure: the selected sources compete for targets under deferred
// acceptance restricted to their candidate lists, with the same proposal
// order and tie-breaks as the sparse batch decision (match.SparseDAA). scores is
// the fused candidate-score structure (Result.FusedSparse), aligned with
// cands. The returned assignment is positional: entry p is the global
// target index chosen for rows[p], -1 when the source exhausts its
// candidates. A nil st selects the pipeline default (sparse deferred
// acceptance); strategies without sparse support are rejected.
func AlignRowsSparse(ctx context.Context, cands blocking.Candidates, scores [][]float64, rows []int, topK int, st match.Strategy) (match.Assignment, error) {
	if st != nil && !st.Caps().Sparse {
		return nil, fmt.Errorf("core: %s assignment needs the dense cost matrix; use the dense pipeline or a sparse decision mode", st.Name())
	}
	if len(cands) != len(scores) {
		return nil, fmt.Errorf("core: AlignRowsSparse: %d candidate rows, %d score rows", len(cands), len(scores))
	}
	if len(rows) == 0 {
		return match.Assignment{}, nil
	}
	if err := validateRowSet(rows, len(cands)); err != nil {
		return nil, err
	}
	subC := make(blocking.Candidates, len(rows))
	subS := make([][]float64, len(rows))
	for p, r := range rows {
		subC[p] = cands[r]
		subS[p] = scores[r]
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if st != nil {
		return st.DecideSparse(subC, subS, topK)
	}
	return match.SparseDAA(subC, subS, topK), nil
}
