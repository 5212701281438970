package main

import (
	"syscall"
	"time"
)

// pause blocks the calling goroutine for d. On Linux it sleeps in
// nanosleep(2), which wakes within about 0.1 ms at the median; time.Sleep
// goes through the runtime's netpoller, whose millisecond timeout makes a
// sub-millisecond sleep end about 0.6 ms late at the median, and that
// lateness would count in every request's latency.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// cpuSeconds is the user plus system CPU time the process has used. Time
// a shared host gives to other tenants is not in it.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
