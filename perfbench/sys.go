package main

import (
	"io/fs"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	allocsMetric = "/gc/heap/allocs:objects"
	liveMetric   = "/gc/heap/live:bytes"
)

// heapAllocs returns the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: allocsMetric}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// peakSampler tracks the peak live heap (as of the last GC) while it
// runs, sampling every interval.
type peakSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startPeakSampler(interval time.Duration) *peakSampler {
	p := &peakSampler{stop: make(chan struct{})}
	s := []rtmetrics.Sample{{Name: liveMetric}}
	sample := func() {
		rtmetrics.Read(s)
		if v := s[0].Value.Uint64(); v > p.peak {
			p.peak = v
		}
	}
	sample()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return p
}

// finish stops the sampler and returns the peak in bytes.
func (p *peakSampler) finish() uint64 {
	close(p.stop)
	p.wg.Wait()
	return p.peak
}

// treeBytes sums the sizes of the regular files under dir.
func treeBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

func fileSize(path string) int64 {
	if st, err := os.Stat(path); err == nil {
		return st.Size()
	}
	return 0
}
