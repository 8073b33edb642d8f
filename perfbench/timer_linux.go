package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timer sleeps with the kernel's high-resolution timer. time.Sleep cannot:
// once the runtime idles in its network poller it waits in whole
// milliseconds, so a sub-millisecond sleep overshoots by up to a
// millisecond, which is twice the mean gap between arrivals at 2,000 req/s.
// Reading a timerfd parks the goroutine in that same poller, and the
// kernel wakes it when the timer fires.
type timer struct {
	fd int // kept apart from f: File.Fd would switch the fd to blocking mode
	f  *os.File
}

func newTimer() (*timer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &timer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleep returns after d, or at once if d is not positive.
func (t *timer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec { timespec it_interval, it_value }: one shot.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

func (t *timer) close() error { return t.f.Close() }
