package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"matopt/internal/benchkit"
)

// loadAvg1 reads the 1-minute load average; 0 where /proc has none.
func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

// cpuModel reads the processor's model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// llcMB reads the size of cpu0's last-level cache from sysfs, in MB;
// 0 when the kernel does not say.
func llcMB() float64 {
	var best float64
	for i := 0; i < 8; i++ {
		data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(data))
		mult := 1.0 / (1 << 20)
		switch {
		case strings.HasSuffix(s, "K"):
			s, mult = strings.TrimSuffix(s, "K"), 1.0/1024
		case strings.HasSuffix(s, "M"):
			s, mult = strings.TrimSuffix(s, "M"), 1
		}
		if v, err := strconv.ParseFloat(s, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// commit returns the VCS revision stamped into the binary, "+dirty"
// appended when the tree had uncommitted changes, or "unknown" (the
// contract's checkout is not a repository).
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// stampEnv describes this host and build for a Record.
func stampEnv(start time.Time) benchkit.Env {
	return benchkit.Env{
		Commit: commit(), GoVersion: runtime.Version(), CPUModel: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoadAvg1: loadAvg1(), Start: start.UTC().Format(time.RFC3339),
	}
}

// usage is a reading of the process's cumulative resource meters; the
// difference of two readings bills a pass.
type usage struct {
	cpuS       float64 // user + system CPU seconds
	allocB     uint64  // bytes ever allocated on the Go heap
	gcPauseS   float64 // stop-the-world GC pause seconds
	peakRSSMiB float64 // resident-set high-water mark
}

func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		u.cpuS = tv(ru.Utime) + tv(ru.Stime)
		u.peakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.allocB = ms.TotalAlloc
	u.gcPauseS = float64(ms.PauseTotalNs) / 1e9
	return u
}
