package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
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

// children tracks every process the benchmark has started, each with a
// channel its reaper closes after cmd.Wait, so an early exit can still
// stop and wait for all of them.
var children struct {
	mu  sync.Mutex
	set map[*exec.Cmd]chan struct{}
}

// spawn starts cmd and a reaper goroutine that waits for it; the returned
// channel is closed once the child has been reaped.
func spawn(cmd *exec.Cmd, waitErr *error) (chan struct{}, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan struct{})
	children.mu.Lock()
	if children.set == nil {
		children.set = make(map[*exec.Cmd]chan struct{})
	}
	children.set[cmd] = done
	children.mu.Unlock()
	go func() {
		*waitErr = cmd.Wait()
		children.mu.Lock()
		delete(children.set, cmd)
		children.mu.Unlock()
		close(done)
	}()
	return done, nil
}

// killAll kills every child still running and waits until each is reaped.
func killAll() {
	children.mu.Lock()
	live := make(map[*exec.Cmd]chan struct{}, len(children.set))
	for c, done := range children.set {
		live[c] = done
	}
	children.mu.Unlock()
	for c, done := range live {
		_ = c.Process.Kill() // fails only if it already exited; the reaper handles both
		<-done
	}
}

// tailBuffer keeps the last max bytes written to it: a child's output for
// error messages without unbounded growth.
type tailBuffer struct {
	mu  sync.Mutex
	b   []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if over := len(t.b) - t.max; over > 0 {
		t.b = append(t.b[:0], t.b[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// peakRSSMB is a finished child's peak resident set size in MiB.
func peakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// cpuOf is the CPU time process pid has run so far: the sum over its
// threads of the first field of /proc/<pid>/task/<tid>/schedstat, in ns.
// The kernel leaves out time the hypervisor stole from the vCPU, so on a
// shared host this counts the work done, not the wait for a core.
func cpuOf(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited since the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// selfCPU is the CPU time this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the machine-wide busy and stolen CPU time (clock ticks)
// from the first line of /proc/stat.
func hostTicks() (busy, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	n := func(i int) int64 {
		if i >= len(f) {
			return 0
		}
		v, _ := strconv.ParseInt(f[i], 10, 64)
		return v
	}
	return n(1) + n(2) + n(3) + n(6) + n(7), n(8)
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// server is one running osnd child.
type server struct {
	cmd      *exec.Cmd
	out      *tailBuffer
	URL      string
	Setup    time.Duration // wall time from spawn to the first /healthz 200
	SetupCPU time.Duration // CPU time osnd used to get there
	Ready    time.Time     // when that 200 arrived
	exit     chan struct{} // closed once cmd.Wait returned
	err      error
}

// startOsnd spawns osnd on a free loopback port and waits for its first
// /healthz 200, polling every 5ms. Setup is measured from just before the
// spawn.
func startOsnd(binDir string, args ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	out := &tailBuffer{max: 64 << 10}
	cmd := exec.Command(filepath.Join(binDir, "osnd"), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = out, out
	s := &server{cmd: cmd, out: out, URL: "http://" + addr}
	start := time.Now()
	if s.exit, err = spawn(cmd, &s.err); err != nil {
		return nil, fmt.Errorf("starting osnd: %w", err)
	}
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(120 * time.Second)
	for {
		resp, err := probe.Get(s.URL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.Ready = time.Now()
				s.Setup = s.Ready.Sub(start)
				if s.SetupCPU, err = s.CPU(); err != nil {
					s.Stop()
					return nil, err
				}
				return s, nil
			}
		}
		select {
		case <-s.exit:
			return nil, fmt.Errorf("osnd %v exited before ready: %v\n%s", args, s.err, out.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.Stop()
			return nil, fmt.Errorf("osnd %v not ready after 120s", args)
		}
	}
}

// setupSample is this start as a set-up sample, its CPU time both at the
// reference speed (see speedMeter) and as measured.
func (s *server) setupSample() setup {
	return setup{wall: s.Setup, cpu: meter.scale(s.SetupCPU, s.Ready.Add(-s.Setup), s.Ready), raw: s.SetupCPU}
}

// CPU is the CPU time the running osnd has used so far.
func (s *server) CPU() (time.Duration, error) { return cpuOf(s.cmd.Process.Pid) }

// Stop sends SIGINT (osnd drains and exits), escalates to SIGKILL after
// 20s, waits for the exit and returns the child's peak RSS in MiB.
func (s *server) Stop() float64 {
	_ = s.cmd.Process.Signal(os.Interrupt) // fails only if already exited
	select {
	case <-s.exit:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exit
	}
	return peakRSSMB(s.cmd.ProcessState)
}

// childRun is what a finished child cost.
type childRun struct {
	wall   time.Duration
	cpu    time.Duration // at the reference speed (see speedMeter)
	rawCPU time.Duration // as measured
	rssMB  float64
}

// runChild runs a program to completion and returns its stdout, its wall
// time from spawn to exit, its CPU time and its peak RSS.
func runChild(path string, args ...string) ([]byte, childRun, error) {
	var stdout bytes.Buffer
	stderr := &tailBuffer{max: 16 << 10}
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	var err error
	start := time.Now()
	done, serr := spawn(cmd, &err)
	if serr != nil {
		return nil, childRun{}, serr
	}
	<-done
	run := childRun{wall: time.Since(start)}
	if err != nil {
		return nil, run, fmt.Errorf("%s %v: %v\n%s", filepath.Base(path), args, err, stderr.String())
	}
	ps := cmd.ProcessState
	run.rawCPU = ps.UserTime() + ps.SystemTime()
	run.cpu = meter.scale(run.rawCPU, start, start.Add(run.wall))
	run.rssMB = peakRSSMB(ps)
	return stdout.Bytes(), run, nil
}
