package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// host is the fingerprint printed with every result, so rows taken on
// different machines are never compared blind.
type host struct {
	CPU          string `json:"cpu"`
	NProc        int    `json:"nproc"`
	GoMaxProcs   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go"`
	Seed         uint64 `json:"seed"`
	BuildWorkers int    `json:"build_workers"`
	ServeWorkers int    `json:"serve_workers"`
}

func fingerprint(seed uint64, buildWorkers, serveWorkers int) host {
	return host{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Seed:         seed,
		BuildWorkers: buildWorkers,
		ServeWorkers: serveWorkers,
	}
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s seed=%d build_workers=%d serve_workers=%d",
		h.CPU, h.NProc, h.GoMaxProcs, h.GoVersion, h.Seed, h.BuildWorkers, h.ServeWorkers)
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// the file is absent).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// processPeakRSSMB returns the process's peak resident set size in MB
// (Linux reports ru_maxrss in KiB).
func processPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS restarts the kernel's resident high-water mark from the
// current resident size, so peakRSSMB then measures one iteration. Where
// the kernel does not support it, peakRSSMB keeps the process's peak.
// (The reset also lowers what getrusage reports, so the process's own
// peak is not available afterwards.)
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the resident high-water mark (VmHWM) in MB, or the
// process's peak where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return processPeakRSSMB()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return processPeakRSSMB()
}

// cpuTicks returns the host's stolen and total CPU ticks from /proc/stat
// (zeros where it is unavailable), to show how much a noisy neighbour
// took from a timed phase.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:] {
		var v uint64
		fmt.Sscanf(f, "%d", &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
