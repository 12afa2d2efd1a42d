//go:build !linux

package main

import (
	"runtime"
	"runtime/metrics"
)

// cpuSeconds falls back to the Go runtime's own estimate of the CPU time
// the process was not idle.
func cpuSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/cpu/classes/idle:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64() - s[1].Value.Float64()
}

// peakRSSMB falls back to the memory the Go runtime has obtained from the
// operating system, which never shrinks.
func peakRSSMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
