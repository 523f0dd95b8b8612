package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"ceaff/internal/core"
	"ceaff/internal/mat"
	"ceaff/internal/match"
)

// Partition is the dense row store: the fused rows, per-feature rows and
// precomputed greedy argmaxes of the sources a consistent-hash ring assigns
// to partition index of total. The whole-space partition (0 of 1, built by
// NewEngine or NewStaticEngine) owns every row and is the unsharded engine.
// Split partitions are extracted from it (NewPartition) and are the storage
// unit behind every Router: in process behind LocalTransports
// (`ceaffd -shards N`, NewShardedRouter) and in the cross-process replica
// daemon (`ceaffd -replica -partition i/N`), where it answers the
// row-gather protocol the Router drives over an HTTPTransport.
//
// A Partition keeps the full name tables (they are small relative to the
// score matrices and every replica needs them to resolve keys and serve
// meta), but only its own rows of every matrix — a replica holding
// partition i/N stores ~1/N of the engine's score memory.
//
// Partition implements Aligner restricted to its owned rows, so a replica
// process serves /v1/align and /readyz for its own sources with the
// ordinary Server machinery; keys naming rows it does not own do not
// resolve. It is immutable after construction apart from SetVersion, which
// a replica calls before publishing, so its methods are safe for
// concurrent use.
type Partition struct {
	index, total int
	version      uint64

	rows  []int // owned global source rows, ascending
	local []int // global source row → position in rows, -1 when not owned

	fused      *mat.Dense // len(rows) × nTargets
	ms, mn, ml *mat.Dense // per-feature rows (nil when the feature degraded)
	greedy     []int      // per-local-row precomputed argmax (global target)

	srcNames []string
	tgtNames []string
	byName   map[string]int
	topK     int
	degraded []core.Degradation
}

// ringVnodes is the virtual-node count per partition; 64 keeps the
// partition imbalance under a few percent at any realistic partition count.
const ringVnodes = 64

type ringPoint struct {
	hash  uint64
	shard int
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// buildRing returns the sorted consistent-hash ring for n partitions. The
// ring hashes source names (stable across engine versions) onto partitions
// via virtual nodes, so adding a partition moves ~1/N of the keys.
func buildRing(n int) []ringPoint {
	ring := make([]ringPoint, 0, n*ringVnodes)
	for s := 0; s < n; s++ {
		for v := 0; v < ringVnodes; v++ {
			ring = append(ring, ringPoint{hash: hashKey(fmt.Sprintf("shard-%d#%d", s, v)), shard: s})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].hash != ring[j].hash {
			return ring[i].hash < ring[j].hash
		}
		return ring[i].shard < ring[j].shard
	})
	return ring
}

// ringOwner returns the partition owning key: the first ring point
// clockwise from the key's hash.
func ringOwner(ring []ringPoint, key string) int {
	h := hashKey(key)
	i := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= h })
	if i == len(ring) {
		i = 0
	}
	return ring[i].shard
}

// partitionOwnership maps every source row to its owning partition, so
// NewPartition, an in-process Router and a multi-process Router all agree
// on who owns what.
func partitionOwnership(srcNames []string, total int) []int {
	ring := buildRing(total)
	owner := make([]int, len(srcNames))
	for row := range srcNames {
		// Hash the name with the row appended so duplicate names spread
		// deterministically instead of piling onto one partition.
		owner[row] = ringOwner(ring, srcNames[row]+"\x00"+strconv.Itoa(row))
	}
	return owner
}

// wholeSpace builds partition 0 of 1 over the given matrices, adopting
// them without copying: every source row is owned and stored at its own
// index.
func wholeSpace(fused, ms, mn, ml *mat.Dense, srcNames, tgtNames []string, topK int) *Partition {
	ident := make([]int, len(srcNames))
	for i := range ident {
		ident[i] = i
	}
	return &Partition{
		total:    1,
		rows:     ident,
		local:    ident,
		fused:    fused,
		ms:       ms,
		mn:       mn,
		ml:       ml,
		greedy:   match.Greedy(fused),
		srcNames: srcNames,
		tgtNames: tgtNames,
		byName:   nameIndex(srcNames),
		topK:     topK,
	}
}

// NewPartition extracts partition index of total from a whole-space
// partition (NewEngine, NewStaticEngine); any other src is an error. src is
// not retained; the partition copies only its own rows, so a replica
// process can release the whole space after extraction.
func NewPartition(src *Partition, index, total int) (*Partition, error) {
	if src.total != 1 {
		return nil, fmt.Errorf("serve: partitions are extracted from the whole space, not from partition %d/%d", src.index, src.total)
	}
	if total < 1 {
		return nil, fmt.Errorf("serve: partition count %d < 1", total)
	}
	if index < 0 || index >= total {
		return nil, fmt.Errorf("serve: partition index %d out of range [0,%d)", index, total)
	}
	owner := partitionOwnership(src.srcNames, total)
	var rows []int
	local := make([]int, len(owner))
	for row, o := range owner {
		local[row] = -1
		if o == index {
			local[row] = len(rows)
			rows = append(rows, row)
		}
	}
	p := &Partition{
		index:    index,
		total:    total,
		rows:     rows,
		local:    local,
		fused:    copyMatrixRows(src.fused, rows),
		ms:       copyMatrixRows(src.ms, rows),
		mn:       copyMatrixRows(src.mn, rows),
		ml:       copyMatrixRows(src.ml, rows),
		greedy:   make([]int, len(rows)),
		srcNames: src.srcNames,
		tgtNames: src.tgtNames,
		byName:   src.byName,
		topK:     src.topK,
	}
	for pos, r := range rows {
		p.greedy[pos] = src.greedy[r]
	}
	return p, nil
}

// NewPartitions extracts all partitions of a total-way split of a
// whole-space partition at once — the construction path of
// NewShardedRouter.
func NewPartitions(src *Partition, total int) ([]*Partition, error) {
	if total < 1 {
		return nil, fmt.Errorf("serve: partition count %d < 1", total)
	}
	parts := make([]*Partition, total)
	for i := 0; i < total; i++ {
		p, err := NewPartition(src, i, total)
		if err != nil {
			return nil, err
		}
		parts[i] = p
	}
	return parts, nil
}

// copyMatrixRows copies the selected global rows of src into a fresh
// len(rows) × src.Cols matrix; nil in, nil out (degraded features).
func copyMatrixRows(src *mat.Dense, rows []int) *mat.Dense {
	if src == nil {
		return nil
	}
	out := mat.NewDense(len(rows), src.Cols)
	for p, r := range rows {
		copy(out.Row(p), src.Row(r))
	}
	return out
}

// Index reports which partition this is.
func (p *Partition) Index() int { return p.index }

// Total reports the partition count of the split this partition belongs to.
func (p *Partition) Total() int { return p.total }

// Version reports the engine version this partition was extracted from.
func (p *Partition) Version() uint64 { return p.version }

// SetVersion stamps the engine version the partition's rows reflect; the
// replica daemon sets it before publishing, and the gather protocol refuses
// requests that expect a different version (the version-skew rule).
func (p *Partition) SetVersion(v uint64) { p.version = v }

// Owned reports how many source rows this partition holds.
func (p *Partition) Owned() int { return len(p.rows) }

// Owns reports whether the partition holds source row.
func (p *Partition) Owns(row int) bool {
	_, ok := p.localRow(row)
	return ok
}

// localRow maps a global source row to its position in the partition's
// storage; ok is false for rows out of range or not owned.
func (p *Partition) localRow(row int) (local int, ok bool) {
	if row < 0 || row >= len(p.local) || p.local[row] < 0 {
		return -1, false
	}
	return p.local[row], true
}

// rowError explains why row has no local position.
func (p *Partition) rowError(row int) error {
	if row < 0 || row >= len(p.srcNames) {
		return fmt.Errorf("serve: source %d out of range [0,%d)", row, len(p.srcNames))
	}
	return fmt.Errorf("%w: source %d not owned by partition %d/%d", ErrNotOwned, row, p.index, p.total)
}

// Degraded lists features the offline pipeline dropped; the daemon logs it
// at startup.
func (p *Partition) Degraded() []core.Degradation { return p.degraded }

// featMask reports which per-feature matrices the partition holds.
func (p *Partition) featMask() byte {
	var m byte
	if p.ms != nil {
		m |= featMs
	}
	if p.mn != nil {
		m |= featMn
	}
	if p.ml != nil {
		m |= featMl
	}
	return m
}

// Meta describes the partition to a router: the split geometry, the engine
// version, and the global name tables every decision needs.
func (p *Partition) Meta() *ReplicaMeta {
	return &ReplicaMeta{
		Partition: p.index,
		Total:     p.total,
		Version:   p.version,
		TopK:      p.topK,
		NamesFP:   namesFingerprint(p.srcNames, p.tgtNames),
		SrcNames:  p.srcNames,
		TgtNames:  p.tgtNames,
	}
}

// GatherLocal answers a row-gather against this partition's storage: the
// fused row, greedy argmax and (optionally) per-feature rows of every
// requested global source row. The returned slices alias partition memory
// and must be treated as read-only. wantVersion enforces the version-skew
// rule: a router must never mix rows from different engine versions in one
// decision, so a partition that has moved on refuses rather than answers.
func (p *Partition) GatherLocal(wantVersion uint64, rows []int, withFeatures bool) (*ShardRows, error) {
	if wantVersion != p.version {
		return nil, fmt.Errorf("%w: partition %d/%d at version %d, gather expects %d",
			ErrVersionSkew, p.index, p.total, p.version, wantVersion)
	}
	sr := &ShardRows{
		Version:  p.version,
		NTargets: len(p.tgtNames),
		Greedy:   make([]int, len(rows)),
		Fused:    make([][]float64, len(rows)),
	}
	mask := p.featMask()
	if withFeatures && mask != 0 {
		if p.ms != nil {
			sr.Ms = make([][]float64, len(rows))
		}
		if p.mn != nil {
			sr.Mn = make([][]float64, len(rows))
		}
		if p.ml != nil {
			sr.Ml = make([][]float64, len(rows))
		}
	}
	for i, row := range rows {
		local, ok := p.localRow(row)
		if !ok {
			return nil, p.rowError(row)
		}
		sr.Greedy[i] = p.greedy[local]
		sr.Fused[i] = p.fused.Row(local)
		if withFeatures {
			if sr.Ms != nil {
				sr.Ms[i] = p.ms.Row(local)
			}
			if sr.Mn != nil {
				sr.Mn[i] = p.mn.Row(local)
			}
			if sr.Ml != nil {
				sr.Ml[i] = p.ml.Row(local)
			}
		}
	}
	return sr, nil
}

// --- Aligner over the owned rows ---

// NumSources implements Aligner: the size of the *global* source universe.
func (p *Partition) NumSources() int { return len(p.srcNames) }

// Resolve implements Aligner with the shared key grammar, restricted to
// owned rows: a key naming another partition's source does not resolve, so
// the server answers 404 instead of running (and failing) a decision.
func (p *Partition) Resolve(key string) (int, bool) {
	row, ok := resolveSource(key, p.srcNames, p.byName)
	return row, ok && p.Owns(row)
}

// Strategies implements Aligner: the rows are dense, so every registered
// strategy applies (Hungarian included).
func (p *Partition) Strategies() []string { return match.StrategyNames() }

// validRequestRows rejects out-of-range and duplicate rows before any
// gather or decision work.
func validRequestRows(rows []int, n int) error {
	seen := make(map[int]bool, len(rows))
	for _, r := range rows {
		if r < 0 || r >= n {
			return fmt.Errorf("serve: source %d out of range [0,%d)", r, n)
		}
		if seen[r] {
			return fmt.Errorf("serve: duplicate source %d", r)
		}
		seen[r] = true
	}
	return nil
}

// AlignCollective implements Aligner for owned rows via core.AlignRows over
// their local positions: the requested sources compete for targets under
// the selected decision strategy (deferred acceptance when strategy is ""),
// exactly as the batch pipeline decides, restricted to the queried rows.
func (p *Partition) AlignCollective(ctx context.Context, rows []int, strategy string) ([]Decision, error) {
	st, err := strategyFor(strategy)
	if err != nil {
		return nil, err
	}
	// The whole space stores every row at its own index, so its rows are
	// already local (core.AlignRows range-checks them).
	locals := rows
	if p.total > 1 {
		locals = make([]int, len(rows))
		for i, row := range rows {
			local, ok := p.localRow(row)
			if !ok {
				return nil, p.rowError(row)
			}
			locals[i] = local
		}
	}
	asn, err := core.AlignRows(ctx, p.fused, locals, p.topK, st)
	if err != nil {
		return nil, err
	}
	out := make([]Decision, len(rows))
	for i, row := range rows {
		out[i] = decisionFromRow(p.srcNames, p.tgtNames, row, p.fused.Row(locals[i]), asn[i])
	}
	return out, nil
}

// AlignGreedy implements Aligner from the precomputed ranking; rows the
// partition does not own come back unmatched (greedy is infallible by
// contract).
func (p *Partition) AlignGreedy(rows []int) []Decision {
	out := make([]Decision, len(rows))
	for i, row := range rows {
		local, ok := p.localRow(row)
		if !ok {
			out[i] = Decision{SourceIndex: row, TargetIndex: -1}
			if row >= 0 && row < len(p.srcNames) {
				out[i].Source = p.srcNames[row]
			}
			continue
		}
		out[i] = decisionFromRow(p.srcNames, p.tgtNames, row, p.fused.Row(local), p.greedy[local])
	}
	return out
}

// Candidates implements Aligner for owned rows: the top-k fused scores of
// one source in descending order (ties toward the lower target index,
// matching mat.TopKRow), each broken down into the surviving per-feature
// scores.
func (p *Partition) Candidates(ctx context.Context, row, k int) ([]Candidate, error) {
	local, ok := p.localRow(row)
	if !ok {
		return nil, p.rowError(row)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return candidatesFromRows(p.tgtNames, p.fused.Row(local), k, featureRow{
		ms: matRowOrNil(p.ms, local), mn: matRowOrNil(p.mn, local), ml: matRowOrNil(p.ml, local),
	}), nil
}

// matRowOrNil returns m.Row(i), or nil for an absent feature matrix.
func matRowOrNil(m *mat.Dense, i int) []float64 {
	if m == nil {
		return nil
	}
	return m.Row(i)
}

// featureRow bundles one source's per-feature rows (nil = degraded/absent).
type featureRow struct{ ms, mn, ml []float64 }

// decisionFromRow assembles the Decision for source row matched to target j
// from the row's fused scores — the single shared implementation behind
// Partition and Router, so every topology produces the same fields, rank
// semantics and unilateral marking.
func decisionFromRow(srcNames, tgtNames []string, row int, fusedRow []float64, j int) Decision {
	d := Decision{SourceIndex: row, Source: srcNames[row], TargetIndex: -1}
	if j < 0 {
		return d
	}
	score := fusedRow[j]
	d.TargetIndex = j
	d.Target = tgtNames[j]
	d.Score = score
	r := 1
	for _, v := range fusedRow {
		if v > score {
			r++
		}
	}
	d.Rank = r
	d.Matched = true
	d.Unilateral = rowUnilateral(fusedRow, j)
	return d
}

// candidatesFromRows builds a top-k candidate list from one source's fused
// row and per-feature rows — shared by Partition and Router so
// remote candidate answers are bit-identical to local ones.
func candidatesFromRows(tgtNames []string, fusedRow []float64, k int, feats featureRow) []Candidate {
	if k < 1 {
		k = 1
	}
	rowView := &mat.Dense{Rows: 1, Cols: len(fusedRow), Data: fusedRow}
	top := mat.TopKRow(rowView, k)[0]
	out := make([]Candidate, len(top))
	for r, j := range top {
		features := map[string]float64{}
		for _, f := range []struct {
			name string
			row  []float64
		}{
			{"structural", feats.ms},
			{"semantic", feats.mn},
			{"string", feats.ml},
		} {
			if f.row != nil {
				features[f.name] = f.row[j]
			}
		}
		out[r] = Candidate{
			TargetIndex: j,
			Target:      tgtNames[j],
			Score:       fusedRow[j],
			Rank:        r + 1,
			Features:    features,
		}
	}
	return out
}
