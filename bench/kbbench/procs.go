package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is where one kbbench invocation builds, writes and runs things:
// a scratch directory inside the checkout and the child processes
// started from it.
type env struct {
	root string // the directory holding kbharvest's go.mod
	bin  string // kbbuild, kbserve, kbrouter
	work string
	keep bool

	mu    sync.Mutex
	procs []*proc
	seq   int
}

var binaries = []string{"kbbuild", "kbserve", "kbrouter"}

// findRoot walks up from the working directory to kbharvest's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module kbharvest\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a kbharvest checkout (no go.mod with module kbharvest above the working directory)")
		}
		dir = parent
	}
}

// newEnv finds the programs bench/run.sh built (building is not part
// of any metric) and creates the run's scratch directory.
func newEnv(bin string, keep bool) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if bin == "" {
		bin = filepath.Join(base, "bin")
	}
	if bin, err = filepath.Abs(bin); err != nil {
		return nil, err
	}
	for _, b := range binaries {
		if _, err := os.Stat(filepath.Join(bin, b)); err != nil {
			return nil, fmt.Errorf("%w (bench/run.sh builds it)", err)
		}
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, bin: bin, work: work, keep: keep}, nil
}

// close stops every child still running and removes the scratch
// directory. It is safe to call on every exit path.
func (e *env) close() {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	e.mu.Unlock()
	stopAll(procs)
	if !e.keep {
		os.RemoveAll(e.work)
	}
}

// proc is one child server.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  string
	t0   time.Time     // exec time
	done chan struct{} // closed once Wait returned
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches kbserve or kbrouter on a free loopback port with
// its output captured to a file. The caller waits for readiness.
func (e *env) startServer(name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.seq++
	logPath := filepath.Join(e.work, fmt.Sprintf("%s-%d.log", name, e.seq))
	e.mu.Unlock()
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	args = append(args, "-addr", addr, "-drain-notice", "0")
	cmd := exec.Command(filepath.Join(e.bin, name), args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logPath, done: make(chan struct{})}
	p.t0 = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()
	return p, nil
}

// stop tears the given children down and forgets them.
func (e *env) stop(ps ...*proc) {
	e.mu.Lock()
	kept := e.procs[:0]
	for _, p := range e.procs {
		drop := false
		for _, q := range ps {
			drop = drop || p == q
		}
		if !drop {
			kept = append(kept, p)
		}
	}
	e.procs = kept
	e.mu.Unlock()
	stopAll(ps)
}

// stopAll asks every process to drain (SIGTERM), kills what has not
// exited after 5 s, and returns once all have been waited for.
func stopAll(ps []*proc) {
	for _, p := range ps {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	grace, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, p := range ps {
		select {
		case <-p.done:
		case <-grace.Done():
			p.cmd.Process.Kill()
			<-p.done
		}
	}
}

// tier is one serving topology: a single kbserve, or one kbserve per
// shard snapshot behind a kbrouter.
type tier struct {
	shards []*proc
	router *proc
	front  string        // where queries are sent
	ready  time.Duration // exec of the first kbserve until every kbserve answered /readyz
}

func (t *tier) procs() []*proc {
	if t.router == nil {
		return t.shards
	}
	return append(append([]*proc(nil), t.shards...), t.router)
}

// startTier launches one kbserve per snapshot, all at once, waits for
// them, and with more than one puts a kbrouter in front.
func (e *env) startTier(ctx context.Context, snapshots []string) (*tier, error) {
	t := &tier{}
	fail := func(err error) (*tier, error) {
		e.stop(t.procs()...)
		return nil, err
	}
	for _, snap := range snapshots {
		p, err := e.startServer("kbserve", "-kb", snap)
		if err != nil {
			return fail(err)
		}
		t.shards = append(t.shards, p)
	}
	for _, p := range t.shards {
		if _, err := p.waitReady(ctx); err != nil {
			return fail(err)
		}
	}
	t.ready = time.Since(t.shards[0].t0)
	t.front = t.shards[0].url
	if len(t.shards) > 1 {
		urls := make([]string, len(t.shards))
		for i, p := range t.shards {
			urls[i] = p.url
		}
		p, err := e.startServer("kbrouter", "-shards", strings.Join(urls, ","))
		if err != nil {
			return fail(err)
		}
		t.router = p
		if _, err := p.waitReady(ctx); err != nil {
			return fail(err)
		}
		t.front = p.url
	}
	return t, nil
}

// logTail returns the end of the child's captured output for an error
// message.
func (p *proc) logTail() string {
	data, _ := os.ReadFile(p.log)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// waitReady polls /readyz every 2 ms until it answers 200 and returns
// the time since exec. It fails if the child exits, the context ends,
// or 30 s pass.
func (p *proc) waitReady(ctx context.Context) (time.Duration, error) {
	hc := &http.Client{Timeout: time.Second}
	deadline := p.t0.Add(30 * time.Second)
	for {
		resp, err := hc.Get(p.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(p.t0), nil
			}
		}
		select {
		case <-p.done:
			return 0, fmt.Errorf("%s exited before it was ready:\n%s", p.name, p.logTail())
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s not ready after 30s:\n%s", p.name, p.logTail())
		}
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime returns the user+system CPU time the process has used.
func (p *proc) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ")".
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line for %s", p.name)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat times for %s", p.name)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSS returns the process's high-water resident set (VmHWM) in MB.
func (p *proc) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

func sumCPU(ps []*proc) (time.Duration, error) {
	var total time.Duration
	for _, p := range ps {
		d, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}
