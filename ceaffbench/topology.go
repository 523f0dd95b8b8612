package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one process of a topology.
type proc struct {
	name     string
	cmd      *exec.Cmd
	logPath  string
	addrFile string
	addr     string
	done     chan struct{} // closed once the process has been waited for
	waitErr  error
	ready    time.Duration // spawn of the topology → first /readyz 200
}

func (p *proc) base() string { return "http://" + p.addr }

// topology is the set of processes one workload serves from: the serving
// process last, replicas (if any) before it.
type topology struct {
	dir   string
	start time.Time
	procs []*proc
}

func (t *topology) main() *proc { return t.procs[len(t.procs)-1] }

// bootTopology spawns w's processes with prog (ceaffd, or the benchmark's
// traced daemon, which takes the same flags) and waits until every one
// answers /readyz 200. The returned setup time runs from the first spawn.
func bootTopology(ctx context.Context, w *workload, prog []string, dir string) (*topology, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t := &topology{dir: dir, start: time.Now()}
	if w.replicas > 0 {
		urls := make([]string, w.replicas)
		for i := 0; i < w.replicas; i++ {
			args := append(w.corpusFlags(), "-replica", "-partition", fmt.Sprintf("%d/%d", i, w.replicas))
			if _, err := t.spawn(prog, fmt.Sprintf("replica%d", i), args); err != nil {
				return t, 0, err
			}
		}
		for i, p := range t.procs {
			if err := p.waitAddr(ctx); err != nil {
				return t, 0, err
			}
			urls[i] = p.base()
		}
		args := append([]string{"-router", "-replicas", strings.Join(urls, ",")}, w.flags...)
		if _, err := t.spawn(prog, "router", args); err != nil {
			return t, 0, err
		}
	} else {
		args := append(w.corpusFlags(), w.flags...)
		if w.wal {
			args = append(args, "-wal", filepath.Join(dir, "wal.log"))
		}
		if _, err := t.spawn(prog, "server", args); err != nil {
			return t, 0, err
		}
	}
	for _, p := range t.procs {
		if err := p.waitAddr(ctx); err != nil {
			return t, 0, err
		}
	}
	setup, err := t.waitReady(ctx, 150*time.Second)
	return t, setup, err
}

func (t *topology) spawn(prog []string, name string, args []string) (*proc, error) {
	p := &proc{
		name:     name,
		logPath:  filepath.Join(t.dir, name+".log"),
		addrFile: filepath.Join(t.dir, name+".addr"),
		done:     make(chan struct{}),
	}
	logf, err := os.Create(p.logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	full := append(append(append([]string(nil), prog[1:]...), args...),
		"-addr", "127.0.0.1:0", "-addrfile", p.addrFile)
	p.cmd = exec.Command(prog[0], full...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	// The kernel kills children whose parent dies, so an aborted benchmark
	// leaves no daemon behind.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	t.procs = append(t.procs, p)
	go func() {
		p.waitErr = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// died reports the exit of a process that should be running, with the tail
// of its log.
func (p *proc) died() error {
	return fmt.Errorf("%s exited early (%v): %s", p.name, p.waitErr, logTail(p.logPath))
}

func logTail(path string) string {
	b, _ := os.ReadFile(path)
	s := strings.TrimSpace(string(b))
	if len(s) > 600 {
		s = "..." + s[len(s)-600:]
	}
	return s
}

func (p *proc) waitAddr(ctx context.Context) error {
	for {
		if b, err := os.ReadFile(p.addrFile); err == nil && len(b) > 0 {
			p.addr = strings.TrimSpace(string(b))
			return nil
		}
		select {
		case <-p.done:
			return p.died()
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// waitReady polls every process's /readyz until all answer 200.
func (t *topology) waitReady(ctx context.Context, timeout time.Duration) (time.Duration, error) {
	c := &http.Client{Timeout: time.Second, Transport: &http.Transport{Proxy: nil}}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	var setup time.Duration
	for _, p := range t.procs {
		for {
			if _, err := readyVersion(c, p.base()); err == nil {
				break
			}
			select {
			case <-p.done:
				return 0, p.died()
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(10 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("%s not ready after %s: %s", p.name, timeout, logTail(p.logPath))
			}
		}
		p.ready = time.Since(t.start)
		if p.ready > setup {
			setup = p.ready
		}
	}
	return setup, nil
}

// readyVersion returns the engine version /readyz reports, or an error
// unless it answers 200.
func readyVersion(c *http.Client, base string) (uint64, error) {
	resp, err := c.Get(base + "/readyz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("readyz %d", resp.StatusCode)
	}
	var body struct {
		EngineVersion uint64 `json:"engine_version"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	return body.EngineVersion, err
}

// peakRSSMiB sums VmHWM over the topology's processes.
func (t *topology) peakRSSMiB() (float64, error) {
	total := 0.0
	for _, p := range t.procs {
		kb, err := vmHWM(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		total += float64(kb) / 1024
	}
	return total, nil
}

func vmHWM(pid int) (uint64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop drains the topology: SIGTERM to the serving process first (so no
// request reaches a draining replica), then to the replicas, waiting for
// each. A process that does not exit 0 within its drain is killed and
// reported.
func (t *topology) stop() error {
	var errs []error
	for i := len(t.procs) - 1; i >= 0; i-- {
		p := t.procs[i]
		select {
		case <-p.done:
			errs = append(errs, p.died())
			continue
		default:
		}
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
			if p.waitErr != nil {
				errs = append(errs, fmt.Errorf("%s drain: %v: %s", p.name, p.waitErr, logTail(p.logPath)))
			}
		case <-time.After(20 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
			errs = append(errs, fmt.Errorf("%s did not drain within 20s", p.name))
		}
	}
	return errors.Join(errs...)
}

// kill ends every process still running and waits for it; the cleanup
// path of a failed run.
func (t *topology) kill() {
	if t == nil {
		return
	}
	for _, p := range t.procs {
		select {
		case <-p.done:
		default:
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
}
