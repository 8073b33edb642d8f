package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The speed meter's work unit and its pace. refUnit is about the CPU time
// one unit takes on a quiet 2-vCPU runner; a CPU figure scaled by the
// meter is in seconds at that speed.
const (
	calibIters = 1 << 13
	calibGap   = 20 * time.Millisecond
	refUnit    = 500 * time.Microsecond
)

// speedMeter measures how fast the benchmark's CPU runs from moment to
// moment, so that CPU times can be reported at one fixed speed.
//
// The host lends its CPUs to other tenants in a way the guest kernel
// cannot see as stolen time: for seconds to minutes at a time the same
// code takes up to twice the CPU time it takes in a quiet spell. A child
// process on the benchmark's CPU therefore runs a fixed unit of work every
// calibGap, random read-modify-writes over a table the size of a core's
// L2 cache, and reports the thread CPU time it took. Over 60 one-second
// windows of serve-read's closed loop, the CPU time per 10,000 reads and
// the mean unit time in the same window correlated at 0.90, and their
// ratio spread (IQR over median) 0.09 against 0.22 for the CPU time
// alone; a unit of pure arithmetic correlated at 0.48 only.
type speedMeter struct {
	mu    sync.Mutex
	at    []time.Time     // when each unit ended
	units []time.Duration // thread CPU time of each unit
}

// meter is the running speed meter; nil leaves CPU times unscaled.
var meter *speedMeter

// startSpeedMeter starts the meter child (this program with --calibrate)
// and waits for its first unit.
func startSpeedMeter() (*speedMeter, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--calibrate")
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	m := &speedMeter{}
	var waitErr error
	if _, err := spawn(cmd, &waitErr); err != nil {
		return nil, fmt.Errorf("starting the speed meter: %w", err)
	}
	first := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(out)
		for n := 0; sc.Scan(); n++ {
			var at, unit int64
			if _, err := fmt.Sscan(sc.Text(), &at, &unit); err != nil {
				continue
			}
			m.mu.Lock()
			m.at = append(m.at, time.Unix(0, at))
			m.units = append(m.units, time.Duration(unit))
			m.mu.Unlock()
			if n == 0 {
				close(first)
			}
		}
	}()
	select {
	case <-first:
		return m, nil
	case <-time.After(10 * time.Second):
		return nil, errors.New("the speed meter reported nothing in 10s")
	}
}

// slowdown is the mean unit time between from and to over refUnit: how
// much longer than at the reference speed the CPU took for the same work.
// An interval shorter than the meter's pace widens to the nearest units.
func (m *speedMeter) slowdown(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	from, to = from.Add(-calibGap), to.Add(calibGap)
	var sum time.Duration
	n := 0
	for i, at := range m.at {
		if !at.Before(from) && !at.After(to) {
			sum += m.units[i]
			n++
		}
	}
	if n == 0 {
		for _, u := range m.units {
			sum += u
		}
		n = len(m.units)
	}
	return float64(sum) / float64(n) / float64(refUnit)
}

// scale reports cpu, spent between from and to, at the reference speed.
func (m *speedMeter) scale(cpu time.Duration, from, to time.Time) time.Duration {
	if m == nil {
		return cpu
	}
	return time.Duration(float64(cpu) / m.slowdown(from, to))
}

// calibrate is the meter child: it runs one unit every calibGap and
// prints when it ended and the thread CPU time it took, until its output
// is closed.
func calibrate() {
	runtime.LockOSThread()
	w := bufio.NewWriter(os.Stdout)
	for {
		t0 := threadCPU()
		calibSink = calibUnit(calibSink)
		d := threadCPU() - t0
		fmt.Fprintf(w, "%d %d\n", time.Now().UnixNano(), d)
		if w.Flush() != nil {
			return
		}
		time.Sleep(calibGap)
	}
}

var (
	calibSink  uint64
	calibTable [1 << 15]uint64 // 256 KiB
)

// calibUnit is a fixed chain of random read-modify-writes over calibTable.
func calibUnit(x uint64) uint64 {
	const mask = uint64(len(calibTable) - 1)
	for i := 0; i < calibIters; i++ {
		x = splitmix64(x + calibTable[x&mask])
		calibTable[x&mask]++
	}
	return x
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
