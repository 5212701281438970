//go:build !linux

package main

import "time"

// pause blocks the calling goroutine for d.
func pause(d time.Duration) { time.Sleep(d) }

// cpuSeconds is the user plus system CPU time the process has used; it is
// not measured on this platform.
func cpuSeconds() float64 { return 0 }
