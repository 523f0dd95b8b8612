package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ceaff/internal/core"
	"ceaff/internal/mat"
	"ceaff/internal/match"
	"ceaff/internal/obs"
	"ceaff/internal/robust"
)

// Router serves a source space split across consistent-hash Partitions:
// each request gathers its rows from the owning partitions and runs ONE
// central collective decision over them, so the competition stays global
// even though the storage is not. Each partition is reached through a
// Transport — in process (LocalTransport, `ceaffd -shards N`) or in a
// separate ceaffd replica process (HTTPTransport). On full health its
// answers are bit-identical to the whole-space Partition: scores cross every
// transport as exact float64 bits.
//
// Every remote gather runs through a fault-tolerance chain built from the
// repo's existing primitives:
//
//	breaker   per-replica Breaker; an open breaker skips the replica
//	          without burning the request's budget on a known-bad peer.
//	deadline  each try's timeout is carved from the request's remaining
//	          budget (remaining / tries left), so retries can never exceed
//	          the granted deadline end-to-end.
//	retry     robust.RetryPolicy with jittered exponential backoff;
//	          version-skew errors retry (the replica may be mid-hot-swap),
//	          ownership errors do not.
//	hedge     an optional second request to the partition's standby (or the
//	          primary again) after a p95-derived delay; the first success
//	          wins and the straggler is cancelled, never double-counted.
//
// When a partition stays unreachable past retry exhaustion the Router does
// NOT fail the request: reachable rows are answered collectively (they
// compete only among themselves) and lost sources come back unmatched with
// "degraded": true, the serve.partition.lost gauge counts the dark
// partitions, and the HTTP layer adds an Engine-Partial header — the
// offline pipeline's degradation-ledger semantics replayed at the
// replication layer.
//
// The version-skew rule: every gather of one decision carries the same
// wantVersion, and replicas refuse to answer at any other version, so a
// decision can never mix rows from two engine snapshots no matter how the
// hot-swap interleaves with the fan-out.
type Router struct {
	cfg RouterConfig
	reg *obs.Registry

	state    atomic.Pointer[routerState]
	replicas []*replicaSet // indexed by partition

	stop     chan struct{}
	stopOnce sync.Once
	started  atomic.Bool
	done     chan struct{}

	lost       *obs.Gauge     // serve.partition.lost
	partial    *obs.Counter   // serve.gather.partial
	retries    *obs.Counter   // serve.replica.retries
	hedges     *obs.Counter   // serve.replica.hedges
	hedgeWins  *obs.Counter   // serve.replica.hedge_wins
	skews      *obs.Counter   // serve.replica.version_skew
	gatherTime *obs.Histogram // serve.gather.seconds (per-partition gather)
}

// RouterConfig parameterizes the Router's fault-tolerance chain. The zero
// value is usable: DefaultRouterConfig's values fill every unset field.
type RouterConfig struct {
	// ProbeInterval is the health-probe cadence of Start's loop.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one replica probe.
	ProbeTimeout time.Duration
	// GatherTimeout is the per-try budget when the request context carries
	// no deadline of its own.
	GatherTimeout time.Duration
	// Retry bounds gather attempts per partition per request.
	Retry robust.RetryPolicy
	// Breaker configures the per-replica circuit breakers.
	Breaker BreakerConfig
	// DisableHedge turns hedged second requests off.
	DisableHedge bool
	// HedgeDelay is the fixed hedge delay; 0 derives it from the p95 of
	// observed gather latency once HedgeMinSamples have been recorded.
	HedgeDelay time.Duration
	// HedgeMinSamples gates p95-derived hedging until the latency histogram
	// is populated enough to trust.
	HedgeMinSamples int64
	// OnVersion is called from the probe loop when every replica has agreed
	// on a new engine version and the router has adopted it — the daemon
	// hooks Server.Publish here so caches invalidate and response headers
	// advance with the fleet.
	OnVersion func(version uint64)
}

// DefaultRouterConfig returns production-shaped defaults: 1s probes, three
// gather attempts with 25ms jittered backoff, breakers that trip fast (a
// dead replica should stop costing budget within a few requests), and
// p95-derived hedging after 20 samples.
func DefaultRouterConfig() RouterConfig {
	return RouterConfig{
		ProbeInterval: time.Second,
		ProbeTimeout:  500 * time.Millisecond,
		GatherTimeout: 2 * time.Second,
		Retry: robust.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   25 * time.Millisecond,
			MaxDelay:    250 * time.Millisecond,
			Multiplier:  2,
			Jitter:      0.2,
		},
		Breaker: BreakerConfig{
			Window:           10,
			MinSamples:       3,
			FailureThreshold: 0.5,
			Cooldown:         2 * time.Second,
		},
		HedgeMinSamples: 20,
	}
}

// routerState is the immutable routing snapshot: name tables, ring
// ownership and the agreed engine version, swapped atomically when the
// probe loop adopts a fleet-wide version change.
type routerState struct {
	version  uint64
	srcNames []string
	tgtNames []string
	byName   map[string]int
	owner    []int // source row → partition
	topK     int
	namesFP  uint64
}

// replicaSet is one partition's transports: the primary owner plus any
// standbys (extra transports announcing the same partition index). Hedged
// second requests go to the first standby; with none, the primary is asked
// again.
type replicaSet struct {
	partition int
	links     []*replicaLink
}

// replicaLink is one transport wrapped in its per-replica fault state.
type replicaLink struct {
	t       Transport
	breaker *Breaker
	healthy atomic.Bool
	version atomic.Uint64 // engine version from the last successful probe
}

// errBreakerOpen is the local (non-wire) refusal when a replica's breaker
// rejects an attempt; retryable — the backoff may outlive the cooldown.
var errBreakerOpen = errors.New("serve: replica breaker open")

// ErrPartitionLost reports that a partition answered no transport within
// the fault-tolerance chain's budget. Align paths degrade instead of
// surfacing it; Candidates returns it.
var ErrPartitionLost = errors.New("serve: partition lost")

// NewRouter connects to every transport, fetches metadata, and verifies the
// fleet is coherent: one split (same total, every partition covered), one
// corpus (same names fingerprint), one engine version, one topK. Metadata
// fetches run under cfg.Retry so a router racing its replicas' boot settles
// rather than failing. Extra transports announcing an already-owned
// partition become that partition's standbys in announcement order.
func NewRouter(ctx context.Context, cfg RouterConfig, transports []Transport, reg *obs.Registry) (*Router, error) {
	def := DefaultRouterConfig()
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = def.ProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = def.ProbeTimeout
	}
	if cfg.GatherTimeout <= 0 {
		cfg.GatherTimeout = def.GatherTimeout
	}
	if cfg.Retry.MaxAttempts < 1 {
		cfg.Retry = def.Retry
	}
	if cfg.Breaker.Window < 1 {
		cfg.Breaker = def.Breaker
	}
	if cfg.HedgeMinSamples < 1 {
		cfg.HedgeMinSamples = def.HedgeMinSamples
	}
	if len(transports) == 0 {
		return nil, errors.New("serve: router needs at least one transport")
	}

	metas := make([]*ReplicaMeta, len(transports))
	for i, t := range transports {
		var m *ReplicaMeta
		err := cfg.Retry.Do(ctx, func(int) error {
			mctx, cancel := context.WithTimeout(ctx, cfg.GatherTimeout)
			defer cancel()
			var merr error
			m, merr = t.Meta(mctx)
			return merr
		})
		if err != nil {
			return nil, fmt.Errorf("serve: router meta from %s: %w", t.Addr(), err)
		}
		metas[i] = m
	}

	first := metas[0]
	if first.Total < 1 {
		return nil, fmt.Errorf("serve: %s reports %d partitions", transports[0].Addr(), first.Total)
	}
	if len(first.SrcNames) == 0 {
		return nil, fmt.Errorf("serve: %s sent no name tables", transports[0].Addr())
	}
	rt := &Router{
		cfg:        cfg,
		reg:        reg,
		replicas:   make([]*replicaSet, first.Total),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		lost:       reg.Gauge("serve.partition.lost"),
		partial:    reg.Counter("serve.gather.partial"),
		retries:    reg.Counter("serve.replica.retries"),
		hedges:     reg.Counter("serve.replica.hedges"),
		hedgeWins:  reg.Counter("serve.replica.hedge_wins"),
		skews:      reg.Counter("serve.replica.version_skew"),
		gatherTime: reg.Histogram("serve.gather.seconds"),
	}
	for p := range rt.replicas {
		rt.replicas[p] = &replicaSet{partition: p}
	}
	for i, m := range metas {
		t := transports[i]
		if m.Total != first.Total {
			return nil, fmt.Errorf("serve: %s splits %d ways, %s splits %d", t.Addr(), m.Total, transports[0].Addr(), first.Total)
		}
		if m.NamesFP != first.NamesFP {
			return nil, fmt.Errorf("serve: %s built from a different corpus (names fingerprint %x != %x)", t.Addr(), m.NamesFP, first.NamesFP)
		}
		if m.Version != first.Version {
			return nil, fmt.Errorf("serve: %s at engine version %d, %s at %d", t.Addr(), m.Version, transports[0].Addr(), first.Version)
		}
		if m.TopK != first.TopK {
			return nil, fmt.Errorf("serve: %s uses topK %d, %s uses %d", t.Addr(), m.TopK, transports[0].Addr(), first.TopK)
		}
		if m.Partition < 0 || m.Partition >= first.Total {
			return nil, fmt.Errorf("serve: %s announces partition %d of %d", t.Addr(), m.Partition, first.Total)
		}
		link := &replicaLink{t: t, breaker: NewBreaker(cfg.Breaker, nil)}
		link.healthy.Store(true)
		link.version.Store(m.Version)
		set := rt.replicas[m.Partition]
		set.links = append(set.links, link)
	}
	for p, set := range rt.replicas {
		if len(set.links) == 0 {
			return nil, fmt.Errorf("serve: no transport announces partition %d of %d", p, first.Total)
		}
	}
	rt.state.Store(newRouterState(first))
	rt.lost.Set(0)
	return rt, nil
}

// NewShardedRouter splits a whole-space partition (NewEngine,
// NewStaticEngine) into n consistent-hash partitions and routes over them in
// process — the `ceaffd -shards N` topology. Each partition copies its own
// rows, so src need not be retained. Hedging is off: an in-process partition
// cannot straggle. No probe loop is started; there is nothing to probe. The
// metadata fetch reads partition memory and cannot block, so it needs no
// caller context.
func NewShardedRouter(src *Partition, n int, reg *obs.Registry) (*Router, error) {
	parts, err := NewPartitions(src, n)
	if err != nil {
		return nil, err
	}
	ts := make([]Transport, n)
	for i, p := range parts {
		ts[i] = &LocalTransport{P: p}
	}
	cfg := DefaultRouterConfig()
	cfg.DisableHedge = true
	return NewRouter(context.Background(), cfg, ts, reg)
}

// newRouterState derives the routing snapshot from one replica's metadata.
func newRouterState(m *ReplicaMeta) *routerState {
	return &routerState{
		version:  m.Version,
		srcNames: m.SrcNames,
		tgtNames: m.TgtNames,
		byName:   nameIndex(m.SrcNames),
		owner:    partitionOwnership(m.SrcNames, m.Total),
		topK:     m.TopK,
		namesFP:  m.NamesFP,
	}
}

// Version reports the engine version the router currently routes at.
func (rt *Router) Version() uint64 { return rt.state.Load().version }

// NumPartitions reports the split width (observability hook).
func (rt *Router) NumPartitions() int { return len(rt.replicas) }

// --- Aligner ---

// NumSources implements Aligner.
func (rt *Router) NumSources() int { return len(rt.state.Load().srcNames) }

// Resolve implements Aligner with the shared key grammar (resolveSource).
func (rt *Router) Resolve(key string) (int, bool) {
	st := rt.state.Load()
	return resolveSource(key, st.srcNames, st.byName)
}

// Strategies implements Aligner: gathers are dense rows, so every
// registered strategy applies.
func (rt *Router) Strategies() []string { return match.StrategyNames() }

// AlignCollective implements Aligner: one fan-out to the partitions, then
// one central collective decision over the rows that came back. Rows whose
// partition is lost degrade to unmatched "degraded": true decisions and are
// excluded from the competition — the reachable rows' answer is exactly
// what a request naming only them would get.
func (rt *Router) AlignCollective(ctx context.Context, rows []int, strategy string) ([]Decision, error) {
	strat, err := strategyFor(strategy)
	if err != nil {
		return nil, err
	}
	st := rt.state.Load()
	if err := validRequestRows(rows, len(st.srcNames)); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return []Decision{}, nil
	}
	gathered, err := rt.gatherRows(ctx, st, rows, false)
	if err != nil {
		return nil, err
	}
	// Pack the reachable rows densely for the decision; lost rows are
	// answered degraded and do not compete.
	live := make([]int, 0, len(rows))
	for i := range rows {
		if gathered.ok[i] {
			live = append(live, i)
		}
	}
	decisions := make([]Decision, len(rows))
	if len(live) > 0 {
		sub := mat.GetDense(len(live), len(st.tgtNames))
		for li, i := range live {
			copy(sub.Row(li), gathered.fused[i])
		}
		asn, derr := core.AlignGathered(ctx, sub, st.topK, strat)
		mat.PutDense(sub)
		if derr != nil {
			return nil, derr
		}
		for li, i := range live {
			decisions[i] = decisionFromRow(st.srcNames, st.tgtNames, rows[i], gathered.fused[i], asn[li])
		}
	}
	for i, row := range rows {
		if !gathered.ok[i] {
			decisions[i] = degradedDecision(st.srcNames, row)
		}
	}
	return decisions, nil
}

// AlignGreedy implements Aligner: the precomputed greedy argmaxes live on
// the replicas, so even the cheap fallback is a (features-free) gather —
// under its own short budget, since the interface carries no context.
func (rt *Router) AlignGreedy(rows []int) []Decision {
	st := rt.state.Load()
	out := make([]Decision, len(rows))
	valid := make([]int, 0, len(rows))
	for i, row := range rows {
		if row < 0 || row >= len(st.srcNames) {
			out[i] = Decision{SourceIndex: row, TargetIndex: -1}
		} else {
			valid = append(valid, i)
		}
	}
	if len(valid) == 0 {
		return out
	}
	vrows := make([]int, len(valid))
	for vi, i := range valid {
		vrows[vi] = rows[i]
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.GatherTimeout)
	defer cancel()
	gathered, err := rt.gatherRows(ctx, st, vrows, false)
	if err != nil {
		for _, i := range valid {
			out[i] = degradedDecision(st.srcNames, rows[i])
		}
		return out
	}
	for vi, i := range valid {
		if !gathered.ok[vi] {
			out[i] = degradedDecision(st.srcNames, rows[i])
			continue
		}
		out[i] = decisionFromRow(st.srcNames, st.tgtNames, rows[i], gathered.fused[vi], gathered.greedy[vi])
	}
	return out
}

// Candidates implements Aligner through a single-row gather with
// per-feature rows. A lost partition is an error here — the candidates
// endpoint has no partial shape to degrade into.
func (rt *Router) Candidates(ctx context.Context, row, k int) ([]Candidate, error) {
	st := rt.state.Load()
	if row < 0 || row >= len(st.srcNames) {
		return nil, fmt.Errorf("serve: source %d out of range [0,%d)", row, len(st.srcNames))
	}
	gathered, err := rt.gatherRows(ctx, st, []int{row}, true)
	if err != nil {
		return nil, err
	}
	if !gathered.ok[0] {
		return nil, fmt.Errorf("%w: partition %d owning source %d", ErrPartitionLost, st.owner[row], row)
	}
	return candidatesFromRows(st.tgtNames, gathered.fused[0], k, gathered.feats[0]), nil
}

// degradedDecision is the partial-answer shape for a source whose partition
// is unreachable: unmatched, explicitly marked.
func degradedDecision(srcNames []string, row int) Decision {
	return Decision{SourceIndex: row, Source: srcNames[row], TargetIndex: -1, Degraded: true}
}

// gatheredRows is a fan-out's result, positionally aligned with the
// requested rows. ok[i] is false when row i's partition was lost; its
// other fields are then zero.
type gatheredRows struct {
	fused  [][]float64
	greedy []int
	ok     []bool
	feats  []featureRow // only populated when gathered withFeatures
}

// gatherRows fans out one gather per participating partition and assembles
// the answers positionally. Partition failures past the fault-tolerance
// chain degrade those positions; only the caller's own context ending
// fails the whole call.
func (rt *Router) gatherRows(ctx context.Context, st *routerState, rows []int, withFeatures bool) (*gatheredRows, error) {
	out := &gatheredRows{
		fused:  make([][]float64, len(rows)),
		greedy: make([]int, len(rows)),
		ok:     make([]bool, len(rows)),
	}
	if withFeatures {
		out.feats = make([]featureRow, len(rows))
	}
	type partWork struct {
		rows []int
		idxs []int // positions in the request
	}
	work := make([]partWork, len(rt.replicas))
	for i, row := range rows {
		w := &work[st.owner[row]]
		w.rows = append(w.rows, row)
		w.idxs = append(w.idxs, i)
	}
	var anyLost atomic.Bool
	gather := func(p int) {
		w := &work[p]
		sr, err := rt.gatherPartition(ctx, st, p, w.rows, withFeatures)
		if err != nil {
			anyLost.Store(true)
			return
		}
		for k, i := range w.idxs {
			out.fused[i] = sr.Fused[k]
			out.greedy[i] = sr.Greedy[k]
			out.ok[i] = true
			if withFeatures {
				out.feats[i] = featureRow{
					ms: indexOrNil(sr.Ms, k), mn: indexOrNil(sr.Mn, k), ml: indexOrNil(sr.Ml, k),
				}
			}
		}
	}
	// Every participating partition but the last gathers on its own
	// goroutine; the last one runs on the caller's, so a request that
	// touches one partition spawns nothing.
	var wg sync.WaitGroup
	last := -1
	for p := range work {
		if len(work[p].rows) == 0 {
			continue
		}
		if last >= 0 {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				gather(p)
			}(last)
		}
		last = p
	}
	if last >= 0 {
		gather(last)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// The caller's own budget ended; a partial answer here would be
		// indistinguishable from partition loss. Fail the request and let
		// the HTTP layer's breaker/fallback machinery take it.
		return nil, err
	}
	if anyLost.Load() {
		rt.partial.Inc()
	}
	return out, nil
}

func indexOrNil(rows [][]float64, i int) []float64 {
	if rows == nil {
		return nil
	}
	return rows[i]
}

// gatherPartition runs the full fault-tolerance chain for one partition's
// slice of a request: breaker-gated transport choice, deadline carving,
// bounded jittered retries, optional hedging. The returned ShardRows is
// verified to be at st.version — never mixed-version data.
func (rt *Router) gatherPartition(ctx context.Context, st *routerState, p int, rows []int, withFeatures bool) (*ShardRows, error) {
	set := rt.replicas[p]
	attempts := rt.cfg.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	deadline, hasDeadline := ctx.Deadline()
	var sr *ShardRows
	faulted := false // a try failed while the request still had budget
	err := rt.cfg.Retry.Do(ctx, func(attempt int) error {
		if attempt > 0 {
			rt.retries.Inc()
		}
		// Carve this try's timeout from the request's remaining budget so
		// the retry sequence can never overrun the granted deadline: an
		// equal share of what is left for each try still owed.
		tryBudget := rt.cfg.GatherTimeout
		if hasDeadline {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return robust.Permanent(context.DeadlineExceeded)
			}
			if carved := remaining / time.Duration(attempts-attempt); carved < tryBudget {
				tryBudget = carved
			}
		}
		tctx, cancel := context.WithTimeout(ctx, tryBudget)
		defer cancel()
		got, gerr := rt.gatherOnce(tctx, st.version, set, rows, withFeatures)
		if gerr == nil {
			sr = got
			return nil
		}
		if errors.Is(gerr, ErrVersionSkew) {
			rt.skews.Inc()
		}
		if ctx.Err() != nil {
			// The request's own budget ended; retrying cannot help, and
			// the partition is not at fault.
			return robust.Permanent(gerr)
		}
		faulted = true
		switch {
		case errors.Is(gerr, ErrNotOwned):
			// Topology misconfiguration; the same ask fails the same way.
			return robust.Permanent(gerr)
		case errors.Is(gerr, context.DeadlineExceeded):
			// Only the carved per-try budget expired. Strip the error's
			// wrap chain (fmt %v, not %w) so robust.Do does not mistake a
			// slow try for the whole request being out of time.
			return fmt.Errorf("serve: partition %d gather try timed out: %v", p, gerr)
		default:
			return gerr
		}
	})
	if err != nil {
		// Running out of the caller's budget says nothing about the
		// partition; only a try that failed within budget marks it lost.
		if faulted {
			rt.markLost(set)
		}
		return nil, fmt.Errorf("%w: partition %d: %v", ErrPartitionLost, p, err)
	}
	if sr.Version != st.version {
		// Belt over the replica-side check: a transport handing back rows
		// from another snapshot must never reach a decision.
		rt.markLost(set)
		return nil, fmt.Errorf("%w: partition %d answered version %d, decision is at %d",
			ErrVersionSkew, p, sr.Version, st.version)
	}
	return sr, nil
}

// gatherOnce performs a single (possibly hedged) gather attempt against
// the partition's transports.
func (rt *Router) gatherOnce(ctx context.Context, version uint64, set *replicaSet, rows []int, withFeatures bool) (*ShardRows, error) {
	primary := rt.pickLink(set, nil)
	if primary == nil {
		return nil, fmt.Errorf("%w: partition %d, all %d transports rejected", errBreakerOpen, set.partition, len(set.links))
	}
	call := func(link *replicaLink) func(context.Context) (*ShardRows, error) {
		return func(cctx context.Context) (*ShardRows, error) {
			defer rt.gatherTime.Time()()
			sr, err := link.t.Gather(cctx, version, rows, withFeatures)
			// A cancelled loser (hedge raced it and won) is not a replica
			// failure; everything else, including timeouts, feeds the
			// breaker.
			link.breaker.Record(err == nil || errors.Is(err, context.Canceled))
			return sr, err
		}
	}
	delay, hedgeable := rt.hedgeDelay()
	if !hedgeable {
		return call(primary)(ctx)
	}
	sr, hedged, err := robust.Hedged(ctx, delay,
		call(primary),
		func(cctx context.Context) (*ShardRows, error) {
			// The standby's breaker is consulted only when the hedge
			// actually fires: Allow obliges a Record, which only a
			// launched call gives.
			standby := rt.pickLink(set, primary)
			if standby == nil {
				return nil, errBreakerOpen
			}
			rt.hedges.Inc()
			return call(standby)(cctx)
		})
	if hedged && err == nil {
		rt.hedgeWins.Inc()
	}
	return sr, err
}

// pickLink returns the first breaker-admitted link, preferring healthy
// ones and skipping `not` (the hedge must hit a different transport when
// the partition has a standby; with none, the primary itself is the hedge
// target). The breaker's Allow obliges a Record, which the gather call
// path provides.
func (rt *Router) pickLink(set *replicaSet, not *replicaLink) *replicaLink {
	// Two passes (healthy first, then unhealthy-but-admitted — the breaker
	// may be probing a replica the prober has not revisited yet) so Allow
	// is only ever consumed on the link actually returned.
	for _, wantHealthy := range []bool{true, false} {
		for _, link := range set.links {
			if link == not || link.healthy.Load() != wantHealthy {
				continue
			}
			if link.breaker.Allow() {
				return link
			}
		}
	}
	if not != nil && len(set.links) == 1 && set.links[0].breaker.Allow() {
		// Single-transport partition: the hedge re-asks the primary.
		return set.links[0]
	}
	return nil
}

// hedgeDelay resolves the hedge trigger: disabled, fixed, or the p95 of
// observed gather latency once enough samples exist.
func (rt *Router) hedgeDelay() (time.Duration, bool) {
	if rt.cfg.DisableHedge {
		return 0, false
	}
	if rt.cfg.HedgeDelay > 0 {
		return rt.cfg.HedgeDelay, true
	}
	stats := rt.gatherTime.Stats()
	if stats.Count < rt.cfg.HedgeMinSamples {
		return 0, false
	}
	return time.Duration(stats.P95 * float64(time.Second)), true
}

// markLost flags every link of a partition unhealthy and refreshes the
// serve.partition.lost gauge; the probe loop flips links back as they
// answer /readyz again.
func (rt *Router) markLost(set *replicaSet) {
	for _, link := range set.links {
		link.healthy.Store(false)
	}
	rt.updateLostGauge()
}

// updateLostGauge recounts partitions with no healthy link.
func (rt *Router) updateLostGauge() {
	lost := 0
	for _, set := range rt.replicas {
		any := false
		for _, link := range set.links {
			if link.healthy.Load() {
				any = true
				break
			}
		}
		if !any {
			lost++
		}
	}
	rt.lost.Set(float64(lost))
}
