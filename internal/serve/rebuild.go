package serve

import (
	"context"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ceaff/internal/core"
	"ceaff/internal/gcn"
	"ceaff/internal/obs"
	"ceaff/internal/robust"
	"ceaff/internal/wal"
)

// Rebuilder turns a corpus snapshot into a fresh engine (NewEngine),
// warm-starting GCN training from a CRC-checked checkpoint on disk when one
// is compatible.
//
// Checkpoint discipline, chosen so recovery is bit-deterministic:
//
//   - The checkpoint file is written once, by the first successful cold
//     build (atomically: temp file, fsync, rename), and then left alone as
//     long as it stays compatible. Every subsequent build — live rebuild or
//     boot replay — warm-starts from the same bytes, so a crash between
//     any two steps reproduces the exact engine a clean boot would build.
//   - gcn.ReadCheckpoint verifies the magic+CRC32 footer; a corrupt file is
//     counted, deleted, and the build falls back to a cold start that
//     recaptures a new checkpoint.
//   - A checkpoint incompatible with the snapshot (mutations changed the
//     entity counts) is replaced the same way: cold build, recapture.
//
// Warm starts resume from the last periodic checkpoint (epoch < Epochs), so
// the remaining epochs re-train against the *mutated* adjacency — the
// incremental re-alignment shape of iMUSE — at a fraction of full training
// cost.
type Rebuilder struct {
	// Cfg is the pipeline configuration every build runs under.
	Cfg core.Config
	// CheckpointPath persists the warm-start checkpoint; "" disables
	// warm-starting (every build is cold).
	CheckpointPath string
	// Reg receives rebuild metrics; nil disables them.
	Reg *obs.Registry
}

// Build runs the pipeline over in and returns the resulting engine. It is
// safe for sequential reuse; the Updater serializes calls.
func (rb *Rebuilder) Build(ctx context.Context, in *core.Input, version uint64) (Aligner, error) {
	cfg := rb.Cfg
	var captured *gcn.Checkpoint
	warm := false
	if rb.CheckpointPath != "" {
		ck, err := rb.loadCheckpoint()
		switch {
		case err != nil:
			rb.Reg.Counter("serve.ckpt.corrupt").Inc()
			_ = os.Remove(rb.CheckpointPath)
		case ck != nil && checkpointCompatible(ck, cfg.GCN, in):
			cfg.GCN.Resume = ck
			warm = true
			rb.Reg.Counter("serve.rebuild.warm").Inc()
		case ck != nil:
			rb.Reg.Counter("serve.ckpt.incompatible").Inc()
		}
		if !warm {
			if cfg.GCN.CheckpointEvery <= 0 {
				cfg.GCN.CheckpointEvery = 10
			}
			cfg.GCN.OnCheckpoint = func(ck *gcn.Checkpoint) { captured = ck }
		}
	}
	done := rb.Reg.Histogram("serve.rebuild.seconds").Time()
	e, err := NewEngine(ctx, in, cfg)
	done()
	if err != nil {
		return nil, err
	}
	if !warm && captured != nil {
		if perr := rb.persistCheckpoint(captured); perr != nil {
			// Losing the checkpoint only costs future builds their warm
			// start; the engine itself is sound.
			rb.Reg.Counter("serve.ckpt.persist.failures").Inc()
		}
	}
	return e, nil
}

// loadCheckpoint reads and CRC-verifies the checkpoint file. It returns
// (nil, nil) when no file exists and an error only for corruption or I/O
// failures.
func (rb *Rebuilder) loadCheckpoint() (*gcn.Checkpoint, error) {
	f, err := os.Open(rb.CheckpointPath)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return gcn.ReadCheckpoint(f)
}

// persistCheckpoint writes ck atomically: temp file, fsync, rename — the
// same discipline as cmd/ceaff, so a crash mid-write leaves either the old
// checkpoint or none, never a torn one.
func (rb *Rebuilder) persistCheckpoint(ck *gcn.Checkpoint) error {
	tmp := rb.CheckpointPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = ck.Save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, rb.CheckpointPath)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	rb.Reg.Counter("serve.ckpt.persisted").Inc()
	return nil
}

// checkpointCompatible reports whether ck can resume GCN training under g
// against the snapshot's entity counts. Mutations that intern new entities
// change the feature-matrix shapes and force a cold start.
func checkpointCompatible(ck *gcn.Checkpoint, g gcn.Config, in *core.Input) bool {
	layers := g.Layers
	if layers <= 0 {
		layers = 2
	}
	return len(ck.Weights) == layers &&
		ck.Weights[0].Cols == g.Dim &&
		ck.X1.Rows == in.G1.NumEntities() &&
		ck.X2.Rows == in.G2.NumEntities() &&
		ck.Epoch <= g.Epochs &&
		(g.Optimizer == gcn.Adam) == (ck.OptM != nil)
}

// BuildFunc produces a new engine for a corpus snapshot at a WAL sequence
// number. Rebuilder.Build is the production implementation; chaos tests
// substitute gated stubs to steer rebuild timing and failures.
type BuildFunc func(ctx context.Context, in *core.Input, version uint64) (Aligner, error)

// MutateResult acknowledges a durable mutation batch.
type MutateResult struct {
	// FirstSeq and LastSeq delimit the batch's WAL sequence numbers.
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	// Pending counts logged mutations not yet reflected by the live engine.
	Pending uint64 `json:"pending"`
	// EngineVersion is the WAL sequence number the live engine reflects.
	EngineVersion uint64 `json:"engine_version"`
}

// Mutator is the write surface the HTTP server drives; Updater is the real
// implementation.
type Mutator interface {
	// Mutate durably applies one atomic mutation batch and returns its
	// sequence range. A *MutationError means the batch was invalid and
	// nothing changed.
	Mutate(ctx context.Context, muts []wal.Mutation) (MutateResult, error)
}

// UpdaterConfig parameterizes the background rebuild loop.
type UpdaterConfig struct {
	// RebuildThreshold is the pending-mutation count that triggers a
	// rebuild (>= 1). Below it, mutations accumulate until the next
	// RebuildInterval tick.
	RebuildThreshold int
	// RebuildInterval drains sub-threshold pending mutations periodically;
	// 0 disables the timer (rebuilds trigger on threshold only).
	RebuildInterval time.Duration
	// Retry bounds rebuild attempts; jittered exponential backoff between
	// them. After the final failure the engine is marked stale.
	Retry robust.RetryPolicy
}

// DefaultUpdaterConfig rebuilds after every mutation batch, with three
// jittered-backoff attempts per rebuild.
func DefaultUpdaterConfig() UpdaterConfig {
	return UpdaterConfig{
		RebuildThreshold: 1,
		RebuildInterval:  0,
		Retry: robust.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   500 * time.Millisecond,
			MaxDelay:    10 * time.Second,
			Multiplier:  2,
			Jitter:      0.2,
		},
	}
}

// Updater is the durable update subsystem glued together: it accepts
// mutation batches (validate → WAL append+fsync → project), and runs the
// background rebuild loop that drains pending mutations into fresh engines
// published via the server's atomic swap. A rebuild that exhausts its
// retries marks the served engine stale instead of taking the service down;
// the next batch or tick retries.
type Updater struct {
	cfg   UpdaterConfig
	store *Store
	log   *wal.Log
	build BuildFunc
	srv   *Server
	reg   *obs.Registry

	version   atomic.Uint64 // WAL seq of the last published engine
	rebuildMu sync.Mutex    // serializes rebuilds (loop vs RebuildNow)

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	rebuilds, failures *obs.Counter
	pendingGauge       *obs.Gauge
}

// NewUpdater wires the update subsystem. baseVersion is the WAL sequence
// the initially published engine reflects (the replayed seq at boot).
func NewUpdater(cfg UpdaterConfig, store *Store, log *wal.Log, build BuildFunc, srv *Server, reg *obs.Registry, baseVersion uint64) *Updater {
	if cfg.RebuildThreshold < 1 {
		cfg.RebuildThreshold = 1
	}
	u := &Updater{
		cfg: cfg, store: store, log: log, build: build, srv: srv, reg: reg,
		kick:         make(chan struct{}, 1),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		rebuilds:     reg.Counter("serve.rebuilds"),
		failures:     reg.Counter("serve.rebuild.failures"),
		pendingGauge: reg.Gauge("serve.mutations.pending"),
	}
	u.version.Store(baseVersion)
	return u
}

// Version returns the WAL sequence number of the last published engine.
func (u *Updater) Version() uint64 { return u.version.Load() }

// Pending counts durably logged mutations the live engine does not reflect.
func (u *Updater) Pending() uint64 { return u.store.Seq() - u.version.Load() }

// Mutate implements Mutator: the batch is staged against the projection,
// appended to the WAL (acknowledged only after fsync), committed, and the
// rebuild loop kicked.
func (u *Updater) Mutate(_ context.Context, muts []wal.Mutation) (MutateResult, error) {
	first, last, err := u.store.Mutate(muts, func(ms []wal.Mutation) (uint64, uint64, error) {
		if ferr := robust.Fire(FaultWALAppend); ferr != nil {
			return 0, 0, ferr
		}
		return u.log.Append(ms)
	})
	if err != nil {
		return MutateResult{}, err
	}
	u.reg.Counter("serve.mutations.applied").Add(int64(len(muts)))
	u.pendingGauge.Set(float64(u.Pending()))
	u.Kick()
	return MutateResult{
		FirstSeq: first, LastSeq: last,
		Pending:       last - u.version.Load(),
		EngineVersion: u.version.Load(),
	}, nil
}

// Kick nudges the rebuild loop; coalesces with an already-pending nudge.
func (u *Updater) Kick() {
	select {
	case u.kick <- struct{}{}:
	default:
	}
}

// Start launches the rebuild loop. ctx cancellation aborts an in-progress
// build cooperatively (the pipeline's cancellation plumbing) and stops the
// loop; Close does the same and also waits for the loop to exit.
func (u *Updater) Start(ctx context.Context) {
	go u.loop(ctx)
}

// Close stops the loop and waits for it — afterwards no goroutine of the
// updater remains.
func (u *Updater) Close() {
	select {
	case <-u.stop:
	default:
		close(u.stop)
	}
	<-u.done
}

func (u *Updater) loop(ctx context.Context) {
	defer close(u.done)
	var tickC <-chan time.Time
	if u.cfg.RebuildInterval > 0 {
		t := time.NewTicker(u.cfg.RebuildInterval)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-u.stop:
			return
		case <-ctx.Done():
			return
		case <-u.kick:
			// A kick fires on every accepted batch; rebuild only once the
			// backlog reaches the threshold.
			if u.Pending() < uint64(u.cfg.RebuildThreshold) {
				continue
			}
		case <-tickC:
			// The timer drains any backlog, however small.
			if u.Pending() == 0 {
				continue
			}
		}
		u.rebuildOnce(ctx)
	}
}

// RebuildNow synchronously rebuilds from the current snapshot even when no
// mutations are pending — operational resync and the chaos tests' lever. It
// returns the error of the final attempt, nil on success.
func (u *Updater) RebuildNow(ctx context.Context) error {
	return u.rebuildOnce(ctx)
}

// rebuildOnce snapshots the store and drives one rebuild-and-swap under the
// retry policy. In-flight requests keep the old engine until the atomic
// publish; a failure after all retries marks the engine stale.
func (u *Updater) rebuildOnce(ctx context.Context) error {
	u.rebuildMu.Lock()
	defer u.rebuildMu.Unlock()
	in, seq := u.store.Snapshot()
	err := u.cfg.Retry.Do(ctx, func(int) error {
		if ferr := robust.Fire(FaultRebuild); ferr != nil {
			return ferr
		}
		a, berr := u.build(ctx, in, seq)
		if berr != nil {
			return berr
		}
		if ferr := robust.Fire(FaultSwap); ferr != nil {
			return ferr
		}
		u.srv.Publish(a, seq)
		u.version.Store(seq)
		return nil
	})
	u.pendingGauge.Set(float64(u.Pending()))
	switch {
	case err == nil:
		u.rebuilds.Inc()
	case errors.Is(err, context.Canceled) && ctx.Err() != nil:
		// Shutdown, not failure: the loop is exiting anyway.
	default:
		u.failures.Inc()
		u.srv.MarkStale()
	}
	return err
}
