package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// vmHWM returns the kernel's resident-set high-water mark of a process in
// bytes, read from /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (int64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
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
		fields := strings.Fields(line) // "VmHWM:", "<n>", "kB"
		if len(fields) != 3 || fields[2] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM line %q: %w", line, err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// goStats is a snapshot of the Go runtime's cumulative counters and this
// process's CPU time.
type goStats struct {
	wall       time.Time
	cpu        time.Duration // user + system, all threads
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readGoStats() goStats {
	metrics.Read(goSamples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return goStats{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: goSamples[0].Value.Uint64(),
		gcCycles:   goSamples[1].Value.Uint64(),
		gcCPU:      goSamples[2].Value.Float64(),
	}
}

// goDelta is the runtime cost of a timed window.
type goDelta struct {
	wall, cpu  time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
}

func (a goStats) to(b goStats) goDelta {
	return goDelta{
		wall:       b.wall.Sub(a.wall),
		cpu:        b.cpu - a.cpu,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
		gcCPU:      b.gcCPU - a.gcCPU,
	}
}

func (d *goDelta) add(o goDelta) {
	d.wall += o.wall
	d.cpu += o.cpu
	d.allocBytes += o.allocBytes
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
}

var refSink float64

// hostRefMs times a fixed floating-point loop that depends on nothing in the
// program, and returns the median of its iterations in milliseconds. Read
// before and after a run, it shows how fast the host ran meanwhile.
func hostRefMs() float64 {
	x := make([]float64, 1<<15)
	var ts []float64
	for it := 0; it < 21; it++ {
		start := time.Now()
		for i := range x {
			x[i] = float64(i)
		}
		s := 0.0
		for r := 0; r < 100; r++ {
			for i := range x {
				s += x[i] * 1.0000001
				x[i] = s * 1e-9
			}
		}
		refSink = s
		ts = append(ts, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ts)
}

// hostRecord is the environment a run's numbers were measured in.
type hostRecord struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	RefMsStart float64 `json:"host_ref_ms_before"`
	RefMsEnd   float64 `json:"host_ref_ms_after"`
}

func newHostRecord() hostRecord {
	return hostRecord{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}
