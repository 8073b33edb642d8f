package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU binds every thread of this process to the first CPU it may
// run on and returns that CPU. Threads the runtime starts later, and every
// child the benchmark spawns, inherit the binding, and a Go child sizes
// GOMAXPROCS to it.
//
// The benchmark's gated figures are CPU times, and on a shared host they
// only hold still when the client and the server never wake each other
// across CPUs. Measured on a 2-vCPU shared VM, alternating one-second
// windows of serve-read's closed loop: with the load generator and osnd
// free to use both CPUs, the CPU time of 10,000 reads followed the share
// of time the hypervisor stole (correlation 0.84; medians of five windows
// from 1.36 to 2.1 s), and with both on one CPU it did not (correlation
// 0.18; 1.08 to 1.35 s). Stolen time itself is left out of CPU time
// either way.
func pinToOneCPU() (int, error) {
	var allowed cpuMask
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, 0, &allowed); err != nil {
		return 0, err
	}
	cpu := -1
	for i := 0; i < len(allowed)*64; i++ {
		if allowed[i/64]>>(i%64)&1 == 1 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return 0, errors.New("empty CPU affinity mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	// A thread started while the list is walked inherits its creator's
	// mask, which may still be the old one, so walk until nothing changes.
	for changed := true; changed; {
		changed = false
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				return 0, fmt.Errorf("task %q: %w", t.Name(), err)
			}
			var cur cpuMask
			if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, tid, &cur); errors.Is(err, syscall.ESRCH) {
				continue // the thread exited since the listing
			} else if err != nil {
				return 0, err
			}
			if cur == one {
				continue
			}
			if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, tid, &one); err != nil && !errors.Is(err, syscall.ESRCH) {
				return 0, err
			}
			changed = true
		}
	}
	return cpu, nil
}

// schedAffinity gets or sets thread tid's affinity mask (0: the caller).
func schedAffinity(trap uintptr, tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return os.NewSyscallError("sched_affinity", errno)
	}
	return nil
}
