package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// rtledProc is one rtled child process, built from the tree under test.
type rtledProc struct {
	cmd   *exec.Cmd
	addr  string // rtled/1 listen address
	admin string // /metrics address
	done  chan struct{}
	werr  error
}

// children tracks every live rtled so an interrupt can stop them all.
var children = struct {
	sync.Mutex
	m map[*rtledProc]bool
}{m: map[*rtledProc]bool{}}

// killChildren stops every live child; the signal handler calls it
// before the benchmark exits.
func killChildren() {
	children.Lock()
	live := make([]*rtledProc, 0, len(children.m))
	for p := range children.m {
		live = append(live, p)
	}
	children.Unlock()
	for _, p := range live {
		_ = p.cmd.Process.Kill() // best effort on the way out
		<-p.done
	}
}

// startRtled boots rtled with args on loopback ports the kernel picks and
// returns once it listens on both its protocol and its admin port.
func startRtled(ctx context.Context, bin string, args ...string) (*rtledProc, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0", "-drain-timeout", "5s"}, args...)
	cmd := exec.Command(bin, args...)
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rtled: %w", err)
	}
	p := &rtledProc{cmd: cmd, done: make(chan struct{})}
	children.Lock()
	children.m[p] = true
	children.Unlock()

	// Both readers keep draining after boot so the child never blocks
	// on a full pipe; they end when the child's pipes close.
	addrc := make(chan string, 1)
	adminc := make(chan string, 1)
	var tail tailBuf
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		scanLines(stdout, &tail, "rtled: listening on ", addrc)
	}()
	go func() {
		defer readers.Done()
		scanLines(stderr, &tail, "rtled: serving /metrics and /snapshot on ", adminc)
	}()
	go func() {
		readers.Wait()
		p.werr = cmd.Wait()
		children.Lock()
		delete(children.m, p)
		children.Unlock()
		close(p.done)
	}()

	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	for p.addr == "" || p.admin == "" {
		select {
		case a := <-addrc:
			p.addr = strings.Fields(a)[0]
		case a := <-adminc:
			p.admin = a
		case <-p.done:
			return nil, fmt.Errorf("rtled exited during boot (%v): %s", p.werr, tail.String())
		case <-timeout.C:
			p.stop()
			return nil, fmt.Errorf("rtled did not start listening within 30s: %s", tail.String())
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		}
	}
	return p, nil
}

// scanLines copies r's lines into tail and sends the remainder of the
// first line starting with prefix on found.
func scanLines(r io.Reader, tail *tailBuf, prefix string, found chan<- string) {
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		tail.add(line)
		if !sent && strings.HasPrefix(line, prefix) {
			found <- strings.TrimPrefix(line, prefix)
			sent = true
		}
	}
}

// tailBuf keeps the last lines a child printed, for error reports.
type tailBuf struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuf) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuf) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, " | ")
}

// stop drains the child with SIGTERM, kills it if the drain overruns, and
// returns once it has exited.
func (p *rtledProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
		return
	case <-time.After(10 * time.Second):
	}
	_ = p.cmd.Process.Kill() // the drain overran; nothing else to try
	<-p.done
}

// scrape fetches rtled's /metrics and parses the unlabelled and labelled
// series into one map keyed by the series as written ("name{labels}").
func (p *rtledProc) scrape() (promSeries, error) {
	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + p.admin + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// promSeries maps a Prometheus series ("name" or "name{labels}") to its
// sample value.
type promSeries map[string]float64

func parseProm(r io.Reader) (promSeries, error) {
	out := promSeries{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of metric name whose labels contain all of the
// given label fragments (e.g. `status="busy"`), so with no fragment it
// adds them all. Per-shard copies of a merged series are skipped.
func (s promSeries) sum(name string, fragments ...string) float64 {
	var v float64
	for k, x := range s {
		base, labels, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		if strings.Contains(labels, "shard=") {
			continue // per-shard copies of a merged series
		}
		ok := true
		for _, f := range fragments {
			if !strings.Contains(labels, f) {
				ok = false
			}
		}
		if ok {
			v += x
		}
	}
	return v
}

// procStat is a point reading of a process's CPU time and peak RSS.
type procStat struct {
	CPUSeconds float64
	PeakMB     float64
}

// readProc reads /proc/<pid>/stat and /proc/<pid>/status.
func readProc(pid int) (procStat, error) {
	var st procStat
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return st, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return st, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	stm, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return st, errors.New("malformed /proc stat times")
	}
	st.CPUSeconds = (ut + stm) / clockTicks
	b, err = os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return st, fmt.Errorf("VmHWM: %w", err)
			}
			st.PeakMB = kb / 1024
		}
	}
	if st.PeakMB == 0 {
		return st, errors.New("no VmHWM in /proc status")
	}
	return st, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times; Linux fixes it at
// 100 for every architecture Go supports.
const clockTicks = 100

// processCPU returns the CPU seconds this process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
