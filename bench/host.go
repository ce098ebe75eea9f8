package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// host is the provenance printed with every result, so numbers taken on
// different machines or builds are never compared unknowingly.
type host struct {
	nproc, maxprocs int
	goVersion, cpu  string
	commit          string
	seed            int64
}

func hostInfo(seed int64) host {
	return host{
		nproc:     runtime.NumCPU(),
		maxprocs:  runtime.GOMAXPROCS(0),
		goVersion: runtime.Version(),
		cpu:       cpuModel(),
		commit:    buildCommit(),
		seed:      seed,
	}
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s seed=%d",
		h.nproc, h.maxprocs, h.goVersion, h.cpu, h.commit, h.seed)
}

// labels is the provenance as trace metadata.
func (h host) labels() map[string]string {
	return map[string]string{
		"nproc":      fmt.Sprint(h.nproc),
		"gomaxprocs": fmt.Sprint(h.maxprocs),
		"go":         h.goVersion,
		"cpu":        h.cpu,
		"commit":     h.commit,
		"seed":       fmt.Sprint(h.seed),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; elsewhere it
// falls back to the architecture.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// buildCommit is the VCS revision the go command stamped into the
// binary, which it does only when building inside a git checkout.
func buildCommit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown"
	case dirty:
		return rev + "-dirty"
	}
	return rev
}
