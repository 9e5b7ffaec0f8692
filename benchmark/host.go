package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"parapre/internal/par"
)

// header records the facts a number from this benchmark depends on.
type header struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	ParWorkers int      `json:"par_workers"`
	CPUModel   string   `json:"cpu_model"`
	Caches     []string `json:"caches"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Scale      string   `json:"scale"`
}

func hostHeader(o runOpts) header {
	return header{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ParWorkers: par.Workers(),
		CPUModel:   cpuModel(),
		Caches:     cacheSizes(),
		Seed:       o.Seed,
		Seconds:    o.Seconds,
		Scale:      o.Scale.Name,
	}
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "parapre benchmark: commit %s, %s, nproc %d, GOMAXPROCS %d, par workers %d\n",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.ParWorkers)
	fmt.Fprintf(w, "cpu: %s; caches: %s\n", h.CPUModel, strings.Join(h.Caches, ", "))
	fmt.Fprintf(w, "seed %d, %g s per run, scale %s\n", h.Seed, h.Seconds, h.Scale)
}

// gitCommit reads the checked-out commit from .git without running git;
// "unknown" outside a repository (the benchmark driver's checkouts).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if data, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(data))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, ok := strings.CutSuffix(line, " "+ref); ok {
				return hash
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// cacheSizes lists cpu0's caches as "L2 unified 2048K".
func cacheSizes() []string {
	var out []string
	for i := 0; ; i++ {
		dir := filepath.Join("/sys/devices/system/cpu/cpu0/cache", "index"+strconv.Itoa(i))
		read := func(name string) string {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return ""
			}
			return strings.TrimSpace(string(data))
		}
		level := read("level")
		if level == "" {
			return out
		}
		out = append(out, fmt.Sprintf("L%s %s %s", level, strings.ToLower(read("type")), read("size")))
	}
}

// peakRSSMB is the process's peak resident set (VmHWM), 0 where
// /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
