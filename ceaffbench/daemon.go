package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ceaff/internal/core"
	"ceaff/internal/mat"
	"ceaff/internal/obs"
	"ceaff/internal/robust"
	"ceaff/internal/serve"
	"ceaff/internal/wal"
)

// runDaemon is `ceaffbench daemon`, the traced stand-in for ceaffd. It
// accepts the ceaffd flags the workloads use and builds each topology role
// from the same public constructors, but wraps every layer's public
// interface — http.Handler, Aligner and GroupAligner, Transport, the
// HTTPTransport client's RoundTripper, Mutator and BuildFunc — to record
// spans while tracing is on. POST /bench/trace?on=1|0 switches tracing;
// GET /bench/trace returns the spans, boot stage times, allocation and GC
// figures of the traced window and a /metrics snapshot.
func runDaemon(args []string) error {
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	addrFile := fs.String("addrfile", "", "write the bound address to this file once listening")
	fs.Bool("fast", true, "accepted for ceaffd compatibility; the daemon always builds under -fast")
	dataset := fs.String("dataset", "", "standard dataset name to synthesize")
	scale := fs.Float64("scale", 1, "dataset scale factor")
	blocked := fs.Bool("blocked", false, "build the sparse candidate-first engine")
	walPath := fs.String("wal", "", "durable mutation log path; enables POST /v1/mutate")
	replica := fs.Bool("replica", false, "serve one partition and the row-gather protocol")
	partition := fs.String("partition", "", "replica: i/N")
	router := fs.Bool("router", false, "route across remote replicas")
	replicas := fs.String("replicas", "", "router: comma-separated replica base URLs")
	cacheSize := fs.Int("cache-size", serve.DefaultServerConfig().CacheSize, "result-cache entries (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rt := obs.NewRuntime()
	mat.SetMetrics(rt.Metrics)
	scfg := serve.DefaultServerConfig()
	scfg.CacheSize = *cacheSize
	d := &daemon{st: &spanStore{}, rt: rt, srv: serve.NewServer(scfg, rt.Metrics), boot: map[string]float64{}}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /bench/trace", d.handleDump)
	mux.HandleFunc("POST /bench/trace", d.handleToggle)
	mux.Handle("/", d.st.wrapHandler(d.srv.Handler()))
	hs := &http.Server{Handler: mux}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(l.Addr().String()), 0o644); err != nil {
			return err
		}
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(l) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	var closeFn func()
	switch {
	case *router:
		closeFn, err = d.startRouter(ctx, *replicas)
	default:
		closeFn, err = d.startEngine(ctx, *dataset, *scale, *blocked, *replica, *partition, *walPath)
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return err
	}
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		closeFn()
		return err
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(drainCtx) // flips /readyz; its own listener never started
	hs.SetKeepAlivesEnabled(false)
	err = hs.Shutdown(drainCtx)
	closeFn()
	return err
}

type daemon struct {
	st  *spanStore
	rt  *obs.Runtime
	srv *serve.Server

	mu   sync.Mutex
	boot map[string]float64

	// The traced window's start: cumulative allocation and CPU figures.
	winAlloc        uint64
	winGC, winCPU   float64
	endAlloc        uint64
	endGC, endCPU   float64
	windowOpen      bool
	windowCompleted bool
}

func (d *daemon) setBoot(name string, v float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.boot[name] = v
}

// stageTimes splits an engine build into its feature and decision stages
// using the pipeline's own root spans.
func (d *daemon) stageTimes(featureSpan string, engine time.Duration) {
	d.setBoot("boot.engine_s", engine.Seconds())
	for _, s := range obs.BuildReport("boot", d.rt).Spans {
		if s.Name == featureSpan {
			f := time.Duration(s.WallNS)
			d.setBoot("boot.features_s", f.Seconds())
			d.setBoot("boot.decide_s", (engine - f).Seconds())
			return
		}
	}
}

// startEngine is every engine-building role: dense single, blocked,
// replica, and the -wal updater.
func (d *daemon) startEngine(ctx context.Context, dataset string, scale float64, blocked, replica bool, partition, walPath string) (func(), error) {
	pipeCtx := obs.Into(ctx, d.rt)
	cfg := pipelineConfig()
	t0 := time.Now()
	in, err := buildInput(dataset, scale)
	if err != nil {
		return nil, err
	}
	d.setBoot("boot.generate_s", time.Since(t0).Seconds())
	noop := func() {}
	t0 = time.Now()
	switch {
	case blocked:
		cfg = blockedConfig(in, cfg)
		cands := blockedCandidates(in)
		st := cands.Stats()
		d.setBoot("boot.blocking_s", time.Since(t0).Seconds())
		d.setBoot("blocking.cands_per_src", st.AvgCandidates)
		d.setBoot("blocking.recall", st.Recall)
		t0 = time.Now()
		e, err := serve.NewSparseEngine(pipeCtx, in, cfg, cands)
		if err != nil {
			return nil, err
		}
		d.stageTimes("features.blocked", time.Since(t0))
		d.mu.Lock()
		d.boot["boot.blocked_features_s"] = d.boot["boot.features_s"]
		d.boot["boot.blocked_decide_s"] = d.boot["boot.decide_s"]
		d.mu.Unlock()
		d.srv.SetAligner(traceAligner(e, d.st))
		return noop, nil
	case replica:
		var index, total int
		if _, err := fmt.Sscanf(partition, "%d/%d", &index, &total); err != nil {
			return nil, fmt.Errorf("-partition %q: %w", partition, err)
		}
		e, err := serve.NewEngine(pipeCtx, in, cfg)
		if err != nil {
			return nil, err
		}
		d.stageTimes("features", time.Since(t0))
		p, err := serve.NewPartition(e, index, total)
		if err != nil {
			return nil, err
		}
		d.srv.SetPartition(p)
		d.srv.SetAligner(traceAligner(p, d.st))
		return noop, nil
	case walPath == "":
		e, err := serve.NewEngine(pipeCtx, in, cfg)
		if err != nil {
			return nil, err
		}
		d.stageTimes("features", time.Since(t0))
		d.srv.SetAligner(traceAligner(e, d.st))
		return noop, nil
	}
	rb := &serve.Rebuilder{Cfg: cfg, CheckpointPath: walPath + ".ckpt", Reg: d.rt.Metrics}
	wlog, info, err := wal.Open(walPath, serve.BaseFingerprint(in), d.rt.Metrics)
	if err != nil {
		return nil, err
	}
	store, err := serve.NewStore(in, info.Records)
	if err != nil {
		wlog.Close()
		return nil, err
	}
	build := d.st.traceBuild(rb.Build)
	snap, seq := store.Snapshot()
	a, err := build(pipeCtx, snap, seq)
	if err != nil {
		wlog.Close()
		return nil, err
	}
	d.stageTimes("features", time.Since(t0))
	d.srv.Publish(a, seq)
	upd := serve.NewUpdater(serve.DefaultUpdaterConfig(), store, wlog, build, d.srv, d.rt.Metrics, seq)
	upd.Start(ctx)
	d.srv.SetMutator(&tracedMutator{m: upd, st: d.st})
	return func() {
		upd.Close()
		wlog.Close()
	}, nil
}

// startRouter is the -router role: HTTP transports to the replicas, the
// same 500 ms boot retry as ceaffd, then probing and serving.
func (d *daemon) startRouter(ctx context.Context, urls string) (func(), error) {
	client := &http.Client{Transport: &tracedRoundTripper{next: http.DefaultTransport, st: d.st}}
	var transports []serve.Transport
	for _, u := range strings.Split(urls, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			transports = append(transports, &tracedTransport{Transport: &serve.HTTPTransport{Base: u, Client: client}, st: d.st})
		}
	}
	if len(transports) == 0 {
		return nil, errors.New("-replicas lists no URLs")
	}
	rcfg := serve.DefaultRouterConfig()
	var rtr *serve.Router
	rcfg.OnVersion = func(v uint64) { d.srv.Publish(traceAligner(rtr, d.st), v) }
	bootCtx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	boot := robust.RetryPolicy{MaxAttempts: 241, BaseDelay: 500 * time.Millisecond, MaxDelay: 500 * time.Millisecond, Multiplier: 1}
	err := boot.Do(bootCtx, func(int) error {
		t0 := time.Now()
		var rerr error
		rtr, rerr = serve.NewRouter(bootCtx, rcfg, transports, d.rt.Metrics)
		if rerr == nil {
			d.setBoot("fleet.router_connect_s", time.Since(t0).Seconds())
		}
		return rerr
	})
	if err != nil {
		return nil, err
	}
	rtr.Start(ctx)
	d.srv.Publish(traceAligner(rtr, d.st), rtr.Version())
	return rtr.Close, nil
}

// cpuSample reads cumulative GC and total CPU seconds.
func cpuSample() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (d *daemon) handleToggle(w http.ResponseWriter, r *http.Request) {
	on := r.URL.Query().Get("on") == "1"
	d.mu.Lock()
	defer d.mu.Unlock()
	if on {
		d.st.reset()
		d.winAlloc = totalAlloc()
		d.winGC, d.winCPU = cpuSample()
		d.windowOpen, d.windowCompleted = true, false
		d.st.on.Store(true)
	} else if d.windowOpen {
		d.st.on.Store(false)
		d.endAlloc = totalAlloc()
		d.endGC, d.endCPU = cpuSample()
		d.windowOpen, d.windowCompleted = false, true
	}
	w.WriteHeader(http.StatusNoContent)
}

// traceDump is GET /bench/trace's answer.
type traceDump struct {
	Spans      []spanRec            `json:"spans"`
	Dropped    int64                `json:"dropped"`
	Boot       map[string]float64   `json:"boot"`
	AllocBytes float64              `json:"alloc_bytes"`
	GCCPUFrac  float64              `json:"gc_cpu_frac"`
	Metrics    obs.RegistrySnapshot `json:"metrics"`
}

func (d *daemon) handleDump(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	out := traceDump{Boot: make(map[string]float64, len(d.boot)), Metrics: d.rt.Metrics.Snapshot()}
	for k, v := range d.boot {
		out.Boot[k] = v
	}
	if d.windowCompleted {
		out.AllocBytes = float64(d.endAlloc - d.winAlloc)
		if cpu := d.endCPU - d.winCPU; cpu > 0 {
			out.GCCPUFrac = (d.endGC - d.winGC) / cpu
		}
	}
	d.mu.Unlock()
	out.Spans, out.Dropped = d.st.snapshot()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// spanRec is one recorded span. Times are Unix nanoseconds.
type spanRec struct {
	Kind  string `json:"kind"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	// ID identifies aligner calls and gathers; Parent links a gather to
	// its aligner call and a wire round trip to its gather.
	ID     uint64  `json:"id,omitempty"`
	Parent uint64  `json:"parent,omitempty"`
	Req    string  `json:"req,omitempty"`
	Rows   []int   `json:"rows,omitempty"`
	Groups [][]int `json:"groups,omitempty"`
	// ReqBytes/RespBytes size a wire round trip; ShardNs is the replica's
	// own handling time of it.
	ReqBytes  int64  `json:"req_bytes,omitempty"`
	RespBytes int64  `json:"resp_bytes,omitempty"`
	ShardNs   int64  `json:"shard_ns,omitempty"`
	Version   uint64 `json:"version,omitempty"`
	Err       bool   `json:"err,omitempty"`
}

func (s *spanRec) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// maxSpans bounds the span store; spans past it are counted, not kept.
const maxSpans = 1 << 20

// spanStore keeps spans in memory until the benchmark fetches them.
type spanStore struct {
	on      atomic.Bool
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []spanRec
	dropped int64
}

func (s *spanStore) add(r spanRec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.spans) >= maxSpans {
		s.dropped++
		return
	}
	s.spans = append(s.spans, r)
}

func (s *spanStore) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans, s.dropped = nil, 0
}

func (s *spanStore) snapshot() ([]spanRec, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]spanRec(nil), s.spans...), s.dropped
}

type ctxKey int

const (
	callKey ctxKey = iota
	gatherKey
)

func idFrom(ctx context.Context, k ctxKey) uint64 {
	id, _ := ctx.Value(k).(uint64)
	return id
}

// wrapHandler records one span per align, candidates and mutate request,
// and on a replica stamps each /v1/shard answer with its handling time.
func (s *spanStore) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		var kind string
		switch p := r.URL.Path; {
		case p == "/v1/shard":
			h.ServeHTTP(&shardTimer{ResponseWriter: w, start: start}, r)
			return
		case p == "/v1/align":
			kind = "http.align"
		case p == "/v1/mutate":
			kind = "http.mutate"
		case strings.HasPrefix(p, "/v1/entity/"):
			kind = "http.cand"
		default:
			h.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(w, r)
		rec := spanRec{Kind: kind, Start: start.UnixNano(), End: time.Now().UnixNano(), Req: r.Header.Get("X-Request-Id")}
		if rows := r.Header.Get("X-Bench-Rows"); rows != "" {
			for _, f := range strings.Split(rows, ",") {
				if v, err := strconv.Atoi(f); err == nil {
					rec.Rows = append(rec.Rows, v)
				}
			}
		}
		s.add(rec)
	})
}

// shardTimer sets X-Bench-Shard-Ns when the replica's handler starts its
// answer, which it does only once the frame is fully computed.
type shardTimer struct {
	http.ResponseWriter
	start time.Time
	wrote bool
}

func (w *shardTimer) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.Header().Set("X-Bench-Shard-Ns", strconv.FormatInt(int64(time.Since(w.start)), 10))
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *shardTimer) Write(b []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// tracedAligner records each aligner call with the rows it was asked, and
// tags the call's context so transport gathers link back to it.
type tracedAligner struct {
	serve.Aligner
	st *spanStore
}

// tracedGroupAligner adds the grouped surface when the wrapped engine has
// it, so the coalescer takes the same path it takes in ceaffd.
type tracedGroupAligner struct {
	*tracedAligner
	ga serve.GroupAligner
}

func traceAligner(a serve.Aligner, st *spanStore) serve.Aligner {
	t := &tracedAligner{Aligner: a, st: st}
	if ga, ok := a.(serve.GroupAligner); ok {
		return &tracedGroupAligner{tracedAligner: t, ga: ga}
	}
	return t
}

func (a *tracedAligner) begin(ctx context.Context) (context.Context, uint64, time.Time) {
	if !a.st.on.Load() {
		return ctx, 0, time.Time{}
	}
	id := a.st.ids.Add(1)
	return context.WithValue(ctx, callKey, id), id, time.Now()
}

func (a *tracedAligner) AlignCollective(ctx context.Context, rows []int, strategy string) ([]serve.Decision, error) {
	ctx, id, start := a.begin(ctx)
	out, err := a.Aligner.AlignCollective(ctx, rows, strategy)
	if id != 0 {
		a.st.add(spanRec{Kind: "call.align", ID: id, Start: start.UnixNano(), End: time.Now().UnixNano(), Groups: [][]int{rows}, Err: err != nil})
	}
	return out, err
}

func (a *tracedAligner) Candidates(ctx context.Context, row, k int) ([]serve.Candidate, error) {
	ctx, id, start := a.begin(ctx)
	out, err := a.Aligner.Candidates(ctx, row, k)
	if id != 0 {
		a.st.add(spanRec{Kind: "call.cand", ID: id, Start: start.UnixNano(), End: time.Now().UnixNano(), Rows: []int{row}, Err: err != nil})
	}
	return out, err
}

func (a *tracedGroupAligner) AlignCollectiveGroups(ctx context.Context, groups [][]int, strategies []string) ([][]serve.Decision, error) {
	ctx, id, start := a.begin(ctx)
	out, err := a.ga.AlignCollectiveGroups(ctx, groups, strategies)
	if id != 0 {
		a.st.add(spanRec{Kind: "call.align", ID: id, Start: start.UnixNano(), End: time.Now().UnixNano(), Groups: groups, Err: err != nil})
	}
	return out, err
}

// tracedTransport records each gather and tags its context for the wire.
type tracedTransport struct {
	serve.Transport
	st *spanStore
}

func (t *tracedTransport) Gather(ctx context.Context, wantVersion uint64, rows []int, withFeatures bool) (*serve.ShardRows, error) {
	if !t.st.on.Load() {
		return t.Transport.Gather(ctx, wantVersion, rows, withFeatures)
	}
	id := t.st.ids.Add(1)
	start := time.Now()
	out, err := t.Transport.Gather(context.WithValue(ctx, gatherKey, id), wantVersion, rows, withFeatures)
	t.st.add(spanRec{Kind: "gather", ID: id, Parent: idFrom(ctx, callKey), Start: start.UnixNano(), End: time.Now().UnixNano(),
		Req: t.Addr(), Rows: []int{len(rows)}, Err: err != nil})
	return out, err
}

// tracedRoundTripper records each row-gather round trip: its bytes each
// way and the replica's reported handling time.
type tracedRoundTripper struct {
	next http.RoundTripper
	st   *spanStore
}

func (t *tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/shard" || !t.st.on.Load() {
		return t.next.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	rec := spanRec{Kind: "wire", Parent: idFrom(req.Context(), gatherKey), Start: start.UnixNano(), ReqBytes: req.ContentLength}
	if err != nil {
		rec.End, rec.Err = time.Now().UnixNano(), true
		t.st.add(rec)
		return nil, err
	}
	rec.ShardNs, _ = strconv.ParseInt(resp.Header.Get("X-Bench-Shard-Ns"), 10, 64)
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		rec.End, rec.RespBytes = time.Now().UnixNano(), n
		t.st.add(rec)
	}}
	return resp, nil
}

// countingBody counts the bytes read and reports them once on Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// tracedMutator records each durable mutation batch.
type tracedMutator struct {
	m  serve.Mutator
	st *spanStore
}

func (t *tracedMutator) Mutate(ctx context.Context, muts []wal.Mutation) (serve.MutateResult, error) {
	if !t.st.on.Load() {
		return t.m.Mutate(ctx, muts)
	}
	start := time.Now()
	res, err := t.m.Mutate(ctx, muts)
	t.st.add(spanRec{Kind: "mutate", Start: start.UnixNano(), End: time.Now().UnixNano(), Version: res.LastSeq, Err: err != nil})
	return res, err
}

// traceBuild records each engine build with the version it was built
// for, and traces the engine it returns.
func (s *spanStore) traceBuild(build serve.BuildFunc) serve.BuildFunc {
	return func(ctx context.Context, in *core.Input, version uint64) (serve.Aligner, error) {
		start := time.Now()
		a, err := build(ctx, in, version)
		if s.on.Load() {
			s.add(spanRec{Kind: "build", Start: start.UnixNano(), End: time.Now().UnixNano(), Version: version, Err: err != nil})
		}
		if err != nil {
			return nil, err
		}
		return traceAligner(a, s), nil
	}
}
