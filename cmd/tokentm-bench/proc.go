package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// /proc readers. CPU time and peak RSS are read for the process that hosts
// the system under test — the server child on the wire workloads, the
// worker itself otherwise — so cpu_us_per_op and mem_mb are never the
// client's. Linux only, like the rest of the benchmark.

// userHZ is the unit of utime/stime in /proc/<pid>/stat. The kernel exports
// these in USER_HZ, which is 100 on every Linux ABI regardless of CONFIG_HZ.
const userHZ = 100

// procSample is one reading of a process's accounting.
type procSample struct {
	User, Sys time.Duration // cumulative CPU time, all threads
	HWMkB     uint64        // peak resident set, kB
	VolCtxSw  uint64        // voluntary context switches, all threads
}

// parseStat extracts utime and stime (fields 14 and 15) from the text of
// /proc/<pid>/stat. The comm field may contain spaces and parentheses, so
// fields are counted from the last ')'.
func parseStat(text string) (user, sys time.Duration, err error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("proc stat: no comm field in %q", text)
	}
	f := strings.Fields(text[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after comm, want >= 13", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	tick := time.Second / userHZ
	return time.Duration(ut) * tick, time.Duration(st) * tick, nil
}

// parseStatusField returns the leading integer of the named line of
// /proc/<pid>/status text ("VmHWM:\t   51234 kB" -> 51234).
func parseStatusField(text, name string) (uint64, error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %s: %w", name, err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("proc status: no %s line", name)
}

// readProc samples pid. utime/stime in /proc/<pid>/stat already cover every
// thread; context switches are per task, so they are summed over task/*.
func readProc(pid int) (procSample, error) {
	var s procSample
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	if s.User, s.Sys, err = parseStat(string(stat)); err != nil {
		return s, err
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	if s.HWMkB, err = parseStatusField(string(status), "VmHWM"); err != nil {
		return s, err
	}
	tasks, err := filepath.Glob(filepath.Join(dir, "task", "*", "status"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // a thread that exited between Glob and ReadFile
		}
		if n, err := parseStatusField(string(b), "voluntary_ctxt_switches"); err == nil {
			s.VolCtxSw += n
		}
	}
	return s, nil
}

// cpuClock reads pid's CPU-time clock: user+sys of all its threads, living
// and exited, at the scheduler's nanosecond resolution. /proc/<pid>/stat
// carries the same sum in 10 ms ticks, which is a tenth of a 100 ms slice.
func cpuClock(pid int) (time.Duration, error) {
	id := uintptr(^pid)<<3 | 2 // the kernel's MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("cpu clock of pid %d: %w", pid, e)
	}
	return time.Duration(ts.Nano()), nil
}

// hostInfo is the recorded host every report carries.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
