// Command ceaffbench is the repository's end-to-end benchmark of ceaffd.
//
//	bash ceaffbench/run.sh --workload hot-single --seed 1 --seconds 10 --trace 0
//
// run.sh builds ceaffd and this program from the checkout and runs one
// workload (see workload.go). The benchmark boots the workload's topology
// as real processes, drives it from this one process over at most nproc
// keep-alive connections — an open loop at a fixed rate with a seeded key
// stream, then a closed-loop capacity phase — and after the topology has
// stopped checks every answer against a reference engine built in this
// process from the same corpus. It prints each metric by name and unit;
// the last line of standard output is one JSON object.
//
// With --trace 0 the topology runs ceaffd and the metrics are end to end.
// With --trace 1 it runs `ceaffbench daemon` instead, a stand-in built from
// the same public constructors that records spans at each layer's public
// interface, and the metrics are per layer.
//
// An operation fails on a transport error, a non-200 answer (sheds
// included), an Engine-Partial answer from the healthy fleet, response
// bytes that differ from the reference engine's, or an acknowledged write
// that never becomes visible. Any failure makes the command exit 1.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ceaff/internal/core"
	"ceaff/internal/obs"
)

const (
	warmupSeconds   = 1.0
	capacitySeconds = 4.0
	// setupBoots is how many times an untraced run boots the topology; it
	// reports the median and serves from the last boot.
	setupBoots = 5
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	ceaffd   string
	out      string
	root     string
}

func main() {
	log.SetFlags(0)
	if len(os.Args) > 1 && os.Args[1] == "daemon" {
		log.SetPrefix("ceaffbench daemon: ")
		if err := runDaemon(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	log.SetPrefix("ceaffbench: ")
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "traffic seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured open-loop phase")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced daemon and reports per-layer metrics")
	flag.StringVar(&o.ceaffd, "ceaffd", "", "ceaffd binary under test")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for run logs and result files")
	flag.StringVar(&o.root, "root", ".", "checkout root, for the environment stamp")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || (o.trace == 0 && o.ceaffd == "") {
		log.Fatal("want --seconds >= 1, --trace 0|1, and --ceaffd for untraced runs")
	}
	// One spare P keeps the open-loop dispatcher from queueing behind the
	// connection workers when it wakes.
	runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	rep, err := run(ctx, o)
	stop()
	if err != nil {
		log.Fatal(err)
	}
	rep.print(os.Stdout)
	if err := rep.save(o.out); err != nil {
		log.Print(err)
	}
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured; it is printed as comment lines
// and saved under <out>/results.
type report struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    int               `json:"trace"`
	Seconds  int               `json:"seconds"`
	Env      stamp             `json:"env"`
	Phases   map[string]counts `json:"phases"`
	Setups   []float64         `json:"setup_boots_s"`
	RSS      []float64         `json:"peak_rss_boots_mib"`
	Compared int               `json:"reads_compared"`
	Extra    map[string]metric `json:"extra"`
	Result   result            `json:"result"`
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "# ceaffbench %s seed=%d trace=%d seconds=%d\n", r.Workload, r.Seed, r.Trace, r.Seconds)
	e := r.Env
	fmt.Fprintf(w, "# env nproc=%d gomaxprocs=%d server_gomaxprocs=%d go=%s commit=%s source=%s kernel=%s\n",
		e.NProc, e.GOMAXPROCS, e.ServerGOMAXPROCS, e.GoVersion, e.Commit, e.Source, e.Kernel)
	for _, p := range phaseNames {
		if c, ok := r.Phases[p]; ok {
			fmt.Fprintf(w, "# phase %-8s sent=%d ok=%d failed=%d\n", p, c.Sent, c.OK, c.Failed)
		}
	}
	fmt.Fprintf(w, "# reads compared byte for byte with the reference engine: %d\n", r.Compared)
	for _, set := range []map[string]metric{r.Result.Metrics, r.Extra} {
		names := make([]string, 0, len(set))
		for k := range set {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "# %-28s %14.6g %s\n", k, set[k].Value, set[k].Unit)
		}
	}
	b, _ := json.Marshal(r.Result)
	fmt.Fprintln(w, string(b))
}

func (r *report) save(out string) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d.json", r.Workload, r.Seed, r.Trace)), b, 0o644)
}

// stamp records where a result was measured. GOMAXPROCS is the
// generator's; the topology's processes run with the runtime default,
// which ServerGOMAXPROCS records.
type stamp struct {
	NProc            int    `json:"nproc"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	ServerGOMAXPROCS int    `json:"server_gomaxprocs"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
	Source           string `json:"source_sha256"`
	Kernel           string `json:"kernel"`
}

func envStamp(root string) stamp {
	s := stamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), ServerGOMAXPROCS: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		s.ServerGOMAXPROCS = n
	}
	git := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	// A checkout that is not a repository must not report the commit of a
	// repository that happens to enclose it.
	if abs, err := filepath.Abs(root); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	}
	if out, err := git.Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	s.Source = sourceDigest(root)
	return s
}

// sourceDigest hashes the checkout's Go sources, so results from a checkout
// without git history still name the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeStats summarizes the acknowledged writes of a run.
type writeStats struct {
	ackP50Ms, ackP90Ms       float64
	visibleP50S, visibleP90S float64
}

func run(ctx context.Context, o options) (*report, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	dir, err := filepath.Abs(filepath.Join(o.out, "runs", fmt.Sprintf("%s-s%d-t%d-%d", w.name, o.seed, o.trace, os.Getpid())))
	if err != nil {
		return nil, err
	}
	in, err := buildInput(w.dataset, w.scale)
	if err != nil {
		return nil, err
	}
	prog, boots := []string{o.ceaffd}, setupBoots
	if o.trace == 1 {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		prog, boots = []string{self, "daemon"}, 1
	}

	var topo *topology
	defer func() { topo.kill() }()
	var setups, rssBoots []float64
	for b := 0; b < boots; b++ {
		t, setup, err := bootTopology(ctx, w, prog, filepath.Join(dir, fmt.Sprintf("boot%d", b)))
		topo = t
		if err != nil {
			return nil, fmt.Errorf("boot %d: %w", b, err)
		}
		setups = append(setups, setup.Seconds())
		if b < boots-1 {
			rss, err := t.peakRSSMiB()
			if err != nil {
				return nil, err
			}
			rssBoots = append(rssBoots, rss)
			if err := t.stop(); err != nil {
				return nil, err
			}
		}
	}
	sp := topo.main()
	restoreGC := quietGC()
	epoch := time.Now()
	gen := newGenerator(sp.base(), nproc, epoch)
	defer gen.close()
	reads := newKeyStream(w, len(in.Tests), o.seed)
	var writes *mutationStream
	if w.wal {
		writes = newMutationStream(in.G1, o.seed)
	}

	// Warm-up sends reads only, so its answers all come from the base
	// engine.
	var recs []record
	if w.prefill {
		recs = gen.all(phaseWarmup, everyKey(w, len(in.Tests)))
	}
	recs = append(recs, gen.open(ctx, phaseWarmup, openSchedule(w, reads, nil, warmupSeconds))...)
	if o.trace == 1 {
		recs = append(recs, gen.open(ctx, phaseUntraced, openSchedule(w, reads, writes, float64(o.seconds)/2))...)
		if err := toggleTracing(topo, true); err != nil {
			return nil, err
		}
	}
	var before, after obs.RegistrySnapshot
	if o.trace == 1 {
		if before, err = fetchMetrics(sp.base()); err != nil {
			return nil, err
		}
	}
	measure := window{start: epoch.UnixNano() + gen.now()}
	recs = append(recs, gen.open(ctx, phaseMeasure, openSchedule(w, reads, writes, float64(o.seconds)))...)
	measure.end = epoch.UnixNano() + gen.now()
	if o.trace == 1 {
		if after, err = fetchMetrics(sp.base()); err != nil {
			return nil, err
		}
	}
	// Every acknowledged write must become visible before the capacity
	// phase, which then reads one quiescent engine version.
	polls, err := settle(ctx, sp.base(), recs, gen)
	if err != nil {
		return nil, err
	}
	streams := make([]*keyStream, nproc)
	for i := range streams {
		streams[i] = newKeyStream(w, len(in.Tests), o.seed*1000+int64(i)+1)
	}
	if w.prefill {
		recs = append(recs, gen.all(phaseWarmup, everyKey(w, len(in.Tests)))...)
	}
	capStart := gen.now()
	recs = append(recs, gen.closed(ctx, phaseCapacity, streams, time.Duration(capacitySeconds*float64(time.Second)))...)

	var dumps []traceDump
	if o.trace == 1 {
		if err := toggleTracing(topo, false); err != nil {
			return nil, err
		}
		if dumps, err = fetchDumps(topo); err != nil {
			return nil, err
		}
	}
	rss, err := topo.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	rssBoots = append(rssBoots, rss)
	if err := topo.stop(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	restoreGC()

	// The oracle runs only now, so its CPU never competes with the system
	// under test.
	oracles, err := buildOracles(ctx, w, in, recs, polls, filepath.Join(topo.dir, "wal.log"))
	if err != nil {
		return nil, err
	}
	compared, err := judge(recs, oracles)
	if err != nil {
		return nil, err
	}
	var obsv []observation
	for i := range recs {
		if r := &recs[i]; r.op.read() && r.status == http.StatusOK {
			obsv = append(obsv, observation{at: r.done, version: r.version})
		}
	}
	delays, unseen := visibility(recs, append(obsv, polls...))
	for _, r := range unseen {
		r.failed, r.why = true, "acknowledged write never became visible"
	}
	logFailures(recs)

	rep := &report{
		Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Env: envStamp(o.root), Phases: map[string]counts{}, Setups: setups, RSS: rssBoots, Compared: compared,
		Extra: map[string]metric{},
	}
	for p := 0; p < numPhases; p++ {
		if c := tally(recs, p); c.Sent > 0 {
			rep.Phases[phaseNames[p]] = c
		}
	}
	res := result{Attempted: len(recs), Metrics: map[string]metric{}}
	for i := range recs {
		if recs[i].failed {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0

	var acks []float64
	for i := range recs {
		if r := &recs[i]; r.op.kind == opMutate && !r.failed {
			acks = append(acks, float64(r.done-r.sent)/1e6)
		}
	}
	ws := writeStats{
		ackP50Ms: percentile(append([]float64(nil), acks...), 0.5), ackP90Ms: percentile(acks, 0.9),
		visibleP50S: percentile(append([]float64(nil), delays...), 0.5), visibleP90S: percentile(delays, 0.9),
	}
	lat := readLatencies(recs, phaseMeasure)
	e2e := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"peak_rss_mib": {median(rssBoots), "MiB"},
		"p50_ms":       {percentile(lat, 0.5), "ms"},
		"p90_ms":       {percentile(lat, 0.9), "ms"},
		"slo_frac":     {sloFrac(recs, phaseMeasure, w.sloMs), "fraction"},
	}
	// Printed, but not end-to-end metrics: on a two-CPU machine shared
	// with other tenants, p95, p99 and the closed-loop capacity of the
	// cached read path vary by a quarter or more from run to run (quartile
	// distance over median, ten seeds), wider than any bound a regression
	// check could use. failed_frac is 0 whenever a run succeeds.
	rep.Extra["capacity_rps"] = metric{capacity(recs, capStart), "1/s"}
	rep.Extra["failed_frac"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "fraction"}
	rep.Extra["reads_measured"] = metric{float64(len(lat)), "count"}
	rep.Extra["p95_ms"] = metric{percentile(lat, 0.95), "ms"}
	rep.Extra["p99_ms"] = metric{percentile(lat, 0.99), "ms"}
	var lag, svc []float64
	for i := range recs {
		if r := &recs[i]; r.phase == phaseMeasure {
			lag = append(lag, float64(r.queued-r.due)/1e6)
			svc = append(svc, float64(r.done-r.sent)/1e6)
		}
	}
	rep.Extra["gen.send_lag_p50_ms"] = metric{percentile(lag, 0.5), "ms"}
	rep.Extra["gen.send_lag_p99_ms"] = metric{percentile(lag, 0.99), "ms"}
	rep.Extra["gen.service_p50_ms"] = metric{percentile(svc, 0.5), "ms"}
	if w.wal {
		rep.Extra["write.ack_p50_ms"] = metric{ws.ackP50Ms, "ms"}
		rep.Extra["write.ack_p90_ms"] = metric{ws.ackP90Ms, "ms"}
		rep.Extra["write.visible_p50_s"] = metric{ws.visibleP50S, "s"}
		rep.Extra["write.visible_p90_s"] = metric{ws.visibleP90S, "s"}
	}
	if o.trace == 0 {
		res.Metrics = e2e
	} else {
		for k, v := range e2e {
			rep.Extra[k] = v
		}
		lm := layerMetrics(layerInputs{
			w: w, recs: recs, measure: measure, dumps: dumps, ready: readyTimes(topo),
			before: before, after: after, writes: ws,
		})
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{lm[l.name], l.unit}
		}
	}
	rep.Result = res
	if res.Correct {
		_ = os.RemoveAll(dir)
	}
	return rep, nil
}

// loadHeapLimit is the heap at which the generator collects garbage while
// it drives the topology.
const loadHeapLimit = 384 << 20

// quietGC stops the generator's garbage collector from running until the
// heap reaches loadHeapLimit: on a small machine its background marking
// would take CPU from the system under test in bursts, and show up as
// latency the system did not cause. restore puts the previous settings
// back.
func quietGC() (restore func()) {
	runtime.GC()
	pct := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(loadHeapLimit)
	return func() {
		debug.SetGCPercent(pct)
		debug.SetMemoryLimit(limit)
	}
}

func readyTimes(t *topology) []time.Duration {
	out := make([]time.Duration, len(t.procs))
	for i, p := range t.procs {
		out[i] = p.ready
	}
	return out
}

// buildOracles returns one oracle per engine version the run's answers
// report. Only a -wal topology ever serves a version other than 0.
func buildOracles(ctx context.Context, w *workload, in *core.Input, recs []record, polls []observation, walPath string) (map[uint64]*oracle, error) {
	seen := map[uint64]bool{0: true}
	for i := range recs {
		if r := &recs[i]; r.op.read() && r.status == http.StatusOK {
			seen[r.version] = true
		}
	}
	for _, p := range polls {
		seen[p.version] = true
	}
	out := map[uint64]*oracle{}
	if !w.wal {
		a, err := referenceAligner(ctx, w, in)
		if err != nil {
			return nil, err
		}
		out[0] = newOracle(a)
		return out, nil
	}
	var versions []uint64
	for v := range seen {
		versions = append(versions, v)
	}
	sort.Slice(versions, func(a, b int) bool { return versions[a] < versions[b] })
	als, err := versionAligners(ctx, in, walPath, versions)
	if err != nil {
		return nil, err
	}
	for v, a := range als {
		out[v] = newOracle(a)
	}
	return out, nil
}

// settle waits until the serving process reports an engine version that
// covers every acknowledged write, returning its /readyz polls as
// observations for the visibility metric.
func settle(ctx context.Context, base string, recs []record, gen *generator) ([]observation, error) {
	var want uint64
	for i := range recs {
		want = max(want, recs[i].seq)
	}
	if want == 0 {
		return nil, nil
	}
	c := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{Proxy: nil}}
	defer c.CloseIdleConnections()
	var polls []observation
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, err := readyVersion(c, base)
		if err == nil {
			polls = append(polls, observation{at: gen.now(), version: v})
			if v >= want {
				return polls, nil
			}
		}
		if time.Now().After(deadline) {
			return polls, fmt.Errorf("engine version still below acknowledged seq %d after 60s", want)
		}
		select {
		case <-ctx.Done():
			return polls, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func toggleTracing(t *topology, on bool) error {
	q := "0"
	if on {
		q = "1"
	}
	for _, p := range t.procs {
		resp, err := http.Post(p.base()+"/bench/trace?on="+q, "", nil)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return fmt.Errorf("%s: toggle tracing: http %d", p.name, resp.StatusCode)
		}
	}
	return nil
}

func fetchDumps(t *topology) ([]traceDump, error) {
	out := make([]traceDump, len(t.procs))
	for i, p := range t.procs {
		if err := getJSON(p.base()+"/bench/trace", &out[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return out, nil
}

func fetchMetrics(base string) (obs.RegistrySnapshot, error) {
	var s obs.RegistrySnapshot
	err := getJSON(base+"/metrics", &s)
	return s, err
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errors.New(url + ": " + resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
