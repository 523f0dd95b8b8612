package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"

	"ceaff/internal/core"
	"ceaff/internal/mat"
	"ceaff/internal/match"
)

// ShardedEngine partitions the source space across N replica shards behind
// an in-process consistent-hash router. Each shard is a Partition — its own
// copy of the owned rows' fused scores, per-feature rows, and greedy
// ranking — modelling N replicas that each hold a partition instead of the
// full matrix. Queries fan out only to the shards owning the requested
// rows; the gathered preference matrix then runs ONE central collective
// decision, so the answer is bit-identical to the unsharded engine (the
// competition is global even though the storage is not).
//
// ShardedEngine reaches into shard memory directly — it is the zero-copy
// single-process fast path. The Router in router.go is the same gathering
// discipline behind the Transport interface, where shards may live in other
// processes; TestRouterBitIdentity pins the two to the same bytes.
//
// The ring hashes source names (stable across engine versions) onto
// shards via virtual nodes, so adding a shard moves ~1/N of the keys.
type ShardedEngine struct {
	shards []*Partition
	owner  []int // source row → shard index
	local  []int // source row → position within the owning shard

	srcNames []string
	tgtNames []string
	byName   map[string]int
	topK     int
}

// ringVnodes is the virtual-node count per shard; 64 keeps the partition
// imbalance under a few percent at any realistic shard count.
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

// buildRing returns the sorted consistent-hash ring for n shards.
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

// ringOwner returns the shard owning key: the first ring point clockwise
// from the key's hash.
func ringOwner(ring []ringPoint, key string) int {
	h := hashKey(key)
	i := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= h })
	if i == len(ring) {
		i = 0
	}
	return ring[i].shard
}

// NewShardedEngine splits e's source space across nshards consistent-hash
// partitions. The original engine is not retained; each shard copies its
// own rows, so the sharded engine models genuinely separate replicas.
func NewShardedEngine(e *Engine, nshards int) (*ShardedEngine, error) {
	shards, err := NewPartitions(e, nshards)
	if err != nil {
		return nil, err
	}
	owner := partitionOwnership(e.srcNames, nshards)
	local := make([]int, len(e.srcNames))
	for row, s := range owner {
		local[row] = shards[s].local[row]
	}
	return &ShardedEngine{
		shards:   shards,
		owner:    owner,
		local:    local,
		srcNames: e.srcNames,
		tgtNames: e.tgtNames,
		byName:   e.byName,
		topK:     e.topK,
	}, nil
}

// NumShards reports the replica count (observability hook).
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// NumSources implements Aligner.
func (se *ShardedEngine) NumSources() int { return len(se.srcNames) }

// Resolve implements Aligner with the same key grammar as Engine.
func (se *ShardedEngine) Resolve(key string) (int, bool) {
	if i, err := strconv.Atoi(key); err == nil {
		if i >= 0 && i < len(se.srcNames) {
			return i, true
		}
		return 0, false
	}
	i, ok := se.byName[key]
	return i, ok
}

// validRows rejects out-of-range and duplicate rows before any shard work.
func (se *ShardedEngine) validRows(rows []int) error {
	return validRequestRows(rows, len(se.srcNames))
}

// validRequestRows rejects out-of-range and duplicate rows — the shared
// pre-gather validation of ShardedEngine and Router.
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

// gatherShards fills sub row p with the fused row of rows[p], fanning out
// one goroutine per participating shard. Writes are disjoint by
// construction, so no synchronization beyond the join is needed; shards not
// owning any requested row do no work.
func (se *ShardedEngine) gatherShards(sub *mat.Dense, rows []int) {
	type pick struct{ dst, local int }
	work := make(map[int][]pick, len(se.shards))
	for p, r := range rows {
		s := se.owner[r]
		work[s] = append(work[s], pick{dst: p, local: se.local[r]})
	}
	if len(work) == 1 {
		for s, picks := range work {
			sh := se.shards[s]
			for _, pk := range picks {
				copy(sub.Row(pk.dst), sh.fused.Row(pk.local))
			}
		}
		return
	}
	var wg sync.WaitGroup
	for s, picks := range work {
		wg.Add(1)
		go func(sh *Partition, picks []pick) {
			defer wg.Done()
			for _, pk := range picks {
				copy(sub.Row(pk.dst), sh.fused.Row(pk.local))
			}
		}(se.shards[s], picks)
	}
	wg.Wait()
}

// Strategies implements Aligner: the sharded engine gathers a dense
// submatrix, so it accepts every registered strategy like Engine.
func (se *ShardedEngine) Strategies() []string { return match.StrategyNames() }

// AlignCollective implements Aligner: per-shard parallel gather, one
// central collective decision — bit-identical to the unsharded engine.
func (se *ShardedEngine) AlignCollective(ctx context.Context, rows []int, strategy string) ([]Decision, error) {
	st, err := strategyFor(strategy)
	if err != nil {
		return nil, err
	}
	if err := se.validRows(rows); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nTgt := len(se.tgtNames)
	sub := mat.GetDense(len(rows), nTgt)
	defer mat.PutDense(sub)
	se.gatherShards(sub, rows)
	asn, err := core.AlignGathered(ctx, sub, se.topK, st)
	if err != nil {
		return nil, err
	}
	out := make([]Decision, len(rows))
	for p, row := range rows {
		out[p] = se.decision(row, asn[p])
	}
	return out, nil
}

// AlignGreedy implements Aligner from the shards' precomputed rankings.
func (se *ShardedEngine) AlignGreedy(rows []int) []Decision {
	out := make([]Decision, len(rows))
	for p, row := range rows {
		j := -1
		if row >= 0 && row < len(se.owner) {
			j = se.shards[se.owner[row]].greedy[se.local[row]]
		}
		out[p] = se.decision(row, j)
	}
	return out
}

// decision assembles the Decision for source row matched to target j from
// the owning shard's local data — same fields, same rank semantics as the
// unsharded engine.
func (se *ShardedEngine) decision(row, j int) Decision {
	sh := se.shards[se.owner[row]]
	return decisionFromRow(se.srcNames, se.tgtNames, row, sh.fused.Row(se.local[row]), j)
}

// Candidates implements Aligner from the owning shard's partition.
func (se *ShardedEngine) Candidates(ctx context.Context, row, k int) ([]Candidate, error) {
	if row < 0 || row >= len(se.srcNames) {
		return nil, fmt.Errorf("serve: source %d out of range [0,%d)", row, len(se.srcNames))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh := se.shards[se.owner[row]]
	local := se.local[row]
	return candidatesFromRows(se.tgtNames, sh.fused.Row(local), k, featureRow{
		ms: matRowOrNil(sh.ms, local), mn: matRowOrNil(sh.mn, local), ml: matRowOrNil(sh.ml, local),
	}), nil
}
