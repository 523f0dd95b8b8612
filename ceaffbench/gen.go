package main

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Phases of one run, in order. Warm-up latency is never reported; it fills
// caches and lets lazy set-up finish.
const (
	phaseWarmup   = iota
	phaseUntraced // traced runs only: the same open loop with spans off
	phaseMeasure
	phaseCapacity
	numPhases
)

var phaseNames = [numPhases]string{"warmup", "untraced", "measure", "capacity"}

// record is the outcome of one request. Times are nanoseconds since the
// run's epoch, so records of every phase share one clock.
type record struct {
	phase  int
	op     *op
	due    int64 // when the schedule said to send it
	queued int64 // when the dispatcher handed it to the connection queue
	sent   int64 // when a connection picked it up
	done   int64

	status  int
	hash    uint64 // FNV-1a of the response body
	version uint64 // Engine-Version response header
	partial bool   // Engine-Partial response header present
	err     string
	seq     uint64 // mutate: last acknowledged WAL sequence number

	// failed and why are set by the oracle after the system under test
	// stops.
	failed bool
	why    string
}

func (r *record) latencyMs() float64 { return float64(r.done-r.due) / 1e6 }

// generator drives one serving process over a fixed set of keep-alive
// connections: one client per connection, each client used by one worker at
// a time, so at most len(clients) connections are ever open.
type generator struct {
	base    string
	epoch   time.Time
	clients []*http.Client
	reqID   atomic.Uint64
}

func newGenerator(base string, conns int, epoch time.Time) *generator {
	g := &generator{base: base, epoch: epoch}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				Proxy:               nil,
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

func (g *generator) now() int64 { return int64(time.Since(g.epoch)) }

// exec sends r.op on c and fills the response fields of r.
func (g *generator) exec(c *http.Client, r *record) {
	req, err := r.op.request(g.base)
	if err != nil {
		r.err, r.done = err.Error(), g.now()
		return
	}
	req.Header.Set("X-Request-Id", strconv.FormatUint(g.reqID.Add(1), 10))
	resp, err := c.Do(req)
	if err != nil {
		r.err, r.done = err.Error(), g.now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = g.now()
	if err != nil {
		r.err = err.Error()
		return
	}
	r.status = resp.StatusCode
	h := fnv.New64a()
	h.Write(body)
	r.hash = h.Sum64()
	r.version, _ = strconv.ParseUint(resp.Header.Get("Engine-Version"), 10, 64)
	r.partial = resp.Header.Get("Engine-Partial") != ""
	if r.op.kind == opMutate && r.status == http.StatusOK {
		var ack struct {
			LastSeq uint64 `json:"last_seq"`
		}
		if err := json.Unmarshal(body, &ack); err != nil {
			r.err = "mutate ack: " + err.Error()
		}
		r.seq = ack.LastSeq
	}
}

// open runs sched as an open loop: a dispatcher releases each op at its due
// time whatever the state of earlier ones, and the connections take them in
// order. Latency counts from the due time, so a stalled connection charges
// its wait to every request queued behind it.
func (g *generator) open(ctx context.Context, phase int, sched []scheduled) []record {
	recs := make([]record, len(sched))
	// Sized to the number of sends, so the dispatcher never blocks on it and
	// its lateness measures only the generator's own timer slip.
	queue := make(chan int, len(sched))
	wait := g.work(queue, recs)
	start := time.Now()
	n := len(sched)
	for i := range sched {
		due := start.Add(time.Duration(sched[i].due * float64(time.Second)))
		sleepUntil(due)
		if ctx.Err() != nil {
			n = i
			break
		}
		recs[i].phase, recs[i].op = phase, &sched[i].op
		recs[i].due = int64(due.Sub(g.epoch))
		recs[i].queued = g.now()
		queue <- i
	}
	close(queue)
	wait()
	return recs[:n]
}

// work starts one worker per connection, each sending the records whose
// indices it takes from queue until queue is closed. The returned function
// waits for the workers.
func (g *generator) work(queue <-chan int, recs []record) (wait func()) {
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range queue {
				recs[i].sent = g.now()
				g.exec(c, &recs[i])
			}
		}(c)
	}
	return wg.Wait
}

// all sends every op once, as fast as the connections answer.
func (g *generator) all(phase int, ops []op) []record {
	recs := make([]record, len(ops))
	queue := make(chan int, len(ops)) // holds every op, so filling it never blocks
	now := g.now()
	for i := range ops {
		recs[i] = record{phase: phase, op: &ops[i], due: now, queued: now}
		queue <- i
	}
	close(queue)
	g.work(queue, recs)()
	return recs
}

// sleepUntil blocks the calling thread in nanosleep until t. Go's timers
// wake an idle process through the network poller, whose timeout has
// millisecond resolution; that slip would land in every open-loop latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// closed runs a closed loop for dur: each connection sends its stream's
// next op as soon as the previous answer arrives.
func (g *generator) closed(ctx context.Context, phase int, streams []*keyStream, dur time.Duration) []record {
	out := make([][]record, len(g.clients))
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for w, c := range g.clients {
		wg.Add(1)
		go func(w int, c *http.Client) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				o := streams[w].next()
				now := g.now()
				r := record{phase: phase, op: &o, due: now, queued: now, sent: now}
				g.exec(c, &r)
				out[w] = append(out[w], r)
			}
		}(w, c)
	}
	wg.Wait()
	var recs []record
	for _, rs := range out {
		recs = append(recs, rs...)
	}
	return recs
}
