package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// ticker is a periodic Linux timerfd read through the runtime's network
// poller. The poller sleeps in whole milliseconds, so time.Sleep towards
// each due time of a 2000/s schedule wakes about 0.5 ms late at the
// median on an idle machine (RESULTS.md), which would swamp the
// sub-millisecond latencies an open loop measures from those due times.
// A timerfd expires on the kernel's high-resolution clock and reports
// how many periods have passed, so the dispatcher never loses a due
// time even when it wakes late.
type ticker struct{ f *os.File }

func newTicker(period time.Duration) (*ticker, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	ts := syscall.NsecToTimespec(int64(period))
	spec := [2]syscall.Timespec{ts, ts} // it_interval, it_value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &ticker{f: os.NewFile(fd, "timerfd")}, nil
}

// wait blocks until the next expiry and returns the number of periods
// that expired since the previous wait.
func (t *ticker) wait() (int, error) {
	var b [8]byte
	if _, err := t.f.Read(b[:]); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint64(b[:])), nil
}

func (t *ticker) stop() { t.f.Close() }
