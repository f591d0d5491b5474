package main

// Host measurements read from /proc: CPU time and peak RSS of a process
// and the host's steal share over a run.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// procCPUSeconds returns the CPU time of every live thread of pid
// ("self" allowed), summed from /proc/<pid>/task/*/schedstat, which
// counts nanoseconds rather than the 10 ms ticks of /proc/<pid>/stat.
func procCPUSeconds(pid string) (float64, error) {
	dir := "/proc/" + pid + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, t.Name())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %v", dir, t.Name(), err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// procPeakRSSMB returns the peak resident set (VmHWM) of pid in MiB.
func procPeakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM", pid)
}

// cpuTimes reads the aggregate cpu line of /proc/stat: total jiffies
// and steal jiffies.
func cpuTimes() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		// guest and guest_nice (fields 9, 10) are already in user/nice.
		if i < 8 {
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// startSteal returns a function giving the host's steal share of CPU
// time since the call (0 when /proc/stat is unavailable).
func startSteal() func() float64 {
	t0, s0 := cpuTimes()
	return func() float64 {
		t1, s1 := cpuTimes()
		if t1 <= t0 {
			return 0
		}
		return (s1 - s0) / (t1 - t0)
	}
}
