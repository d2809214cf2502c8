package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPUSeconds returns the user+sys CPU time this process has used.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runtimeSample reads the process-wide counters a timed phase is
// charged with: cumulative heap allocation and the GC's share of CPU.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

// peakRSSMB returns the peak resident set (VmHWM) of process pid, or of
// this process when pid is 0, in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times. It is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// childCPUSeconds returns user+sys CPU seconds of process pid from
// /proc/<pid>/stat.
func childCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ")".
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	fields := strings.Fields(s[i+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14, 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (ut + st) / clockTicks, nil
}

// rssSampler samples the resident set of a process every interval
// until stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

// sampleRSS starts sampling process pid (this process when 0).
func sampleRSS(pid int, interval time.Duration) *rssSampler {
	path := "/proc/self/statm"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/statm", pid)
	}
	page := float64(os.Getpagesize()) / (1 << 20)
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			if raw, err := os.ReadFile(path); err == nil {
				if f := strings.Fields(string(raw)); len(f) > 1 {
					if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
						s.samples = append(s.samples, pages*page)
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the samples in MiB.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}
