package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// procSnap is a reading of the process's CPU and Go runtime counters.
type procSnap struct {
	cpu        time.Duration // user+system CPU from getrusage
	allocBytes float64       // cumulative heap allocation
	gcCPU      float64       // cumulative GC CPU seconds (runtime estimate)
	totalCPU   float64       // cumulative CPU seconds available to Go (runtime estimate)
}

var procMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProc() procSnap {
	var ru syscall.Rusage
	var s procSnap
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	ms := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.allocBytes = value(ms[0])
	s.gcCPU = value(ms[1])
	s.totalCPU = value(ms[2])
	return s
}

func value(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// procDelta is the process cost of a phase.
type procDelta struct {
	cpu        time.Duration
	allocBytes float64
	gcFrac     float64 // share of the runtime's CPU time spent in GC
}

func (a procSnap) to(b procSnap) procDelta {
	d := procDelta{cpu: b.cpu - a.cpu, allocBytes: b.allocBytes - a.allocBytes}
	if t := b.totalCPU - a.totalCPU; t > 0 {
		d.gcFrac = (b.gcCPU - a.gcCPU) / t
	}
	return d
}

// memSampler tracks the peak of heap plus stack memory in use while it
// runs, sampling the runtime without stopping the world.
type memSampler struct {
	stop           chan struct{}
	done           sync.WaitGroup
	peak, heapPeak float64
}

var memMetricNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/memory/classes/heap/stacks:bytes",
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	ms := make([]metrics.Sample, len(memMetricNames))
	for i, n := range memMetricNames {
		ms[i].Name = n
	}
	read := func() {
		metrics.Read(ms)
		heap := value(ms[0]) + value(ms[1])
		m.heapPeak = max(m.heapPeak, heap)
		m.peak = max(m.peak, heap+value(ms[2]))
	}
	read()
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return m
}

// Stop ends sampling and returns the peaks of heap+stack and of heap
// alone, in MB.
func (m *memSampler) Stop() (peakMB, heapPeakMB float64) {
	close(m.stop)
	m.done.Wait()
	return m.peak / (1 << 20), m.heapPeak / (1 << 20)
}
