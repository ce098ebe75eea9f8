package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// repeats is how many fresh processes run each workload per set, each
// with the next seed; a set reports the median of each metric.
const repeats = 3

// spec is the part of BENCHMARK.json the benchmark reads back: the
// declared workloads and metrics, and each end-to-end metric's bound.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("bench: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("bench: %s: %w", path, err)
	}
	return s, nil
}

// setEntry is one workload's outcome in one set.
type setEntry struct {
	runs   []result // the untraced runs, in seed order
	traced result
}

// median is the set's median of an end-to-end metric over its runs.
func (e setEntry) median(name string) float64 {
	vals := make([]float64, len(e.runs))
	for i, r := range e.runs {
		vals[i] = r.Metrics[name].Value
	}
	return pct(vals, 0.5)
}

func (e setEntry) tally() (attempted, failed int64) {
	attempted, failed = e.traced.Attempted, e.traced.Failed
	for _, r := range e.runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return attempted, failed
}

// runSets runs every workload repeats times untraced and once traced,
// each in a fresh process, per set. With two or more sets it compares
// each set's medians with the first set's against BENCHMARK.json's
// bounds and fails when any pair disagrees or any op failed.
func runSets(sets int, seed int64, seconds int) error {
	if sets < 1 {
		return fmt.Errorf("bench: -sets must be at least 1")
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	fmt.Printf("host: %s\n", hostInfo(seed))
	all := make([]map[string]setEntry, sets)
	for s := range all {
		all[s] = map[string]setEntry{}
		for _, w := range workloads {
			var e setEntry
			for rep := 0; rep < repeats; rep++ {
				res, err := child(exe, w.name, seed+int64(rep), seconds, false)
				if err != nil {
					return err
				}
				e.runs = append(e.runs, res)
			}
			if e.traced, err = child(exe, w.name, seed, seconds, true); err != nil {
				return err
			}
			all[s][w.name] = e
			printEntry(s+1, w.name, e, sp)
		}
	}
	if sets == 1 {
		return nil
	}
	return agree(all, sp)
}

// child runs one workload in a fresh process and parses its result line.
func child(exe, name string, seed int64, seconds int, traced bool) (result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("bench: %s seed %d: %w", name, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return result{}, fmt.Errorf("bench: %s seed %d: result line: %w", name, seed, err)
	}
	return res, nil
}

func printEntry(set int, name string, e setEntry, sp spec) {
	attempted, failed := e.tally()
	verdict := "correct"
	if failed > 0 {
		verdict = "FAILED"
	}
	fmt.Printf("\nset %d  %s  %s: %d of %d ops failed\n", set, name, verdict, failed, attempted)
	fmt.Printf("  %-30s %-9s %14s  %s\n", "metric", "unit", "median", "runs")
	for _, m := range sp.EndToEnd {
		vals := make([]string, len(e.runs))
		for i, r := range e.runs {
			vals[i] = strconv.FormatFloat(r.Metrics[m.Name].Value, 'f', 4, 64)
		}
		fmt.Printf("  %-30s %-9s %14.4f  %s\n", m.Name, m.Unit, e.median(m.Name), strings.Join(vals, " "))
	}
	for _, m := range sp.PerLayer {
		fmt.Printf("  %-30s %-9s %14.4f  traced\n", m.Name, m.Unit, e.traced.Metrics[m.Name].Value)
	}
}

// agree prints, per workload and end-to-end metric, the first set's
// median, each later set's, their ratio, and whether the later one is
// within the metric's bound of the first.
func agree(all []map[string]setEntry, sp spec) error {
	disagree := 0
	fmt.Printf("\n%-16s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "set 1", "set n", "ratio", "bound", "verdict")
	for n := 1; n < len(all); n++ {
		for _, w := range workloads {
			first, later := all[0][w.name], all[n][w.name]
			for _, m := range sp.EndToEnd {
				a, b := first.median(m.Name), later.median(m.Name)
				ratio := b / a
				worse := ratio - 1
				if m.Better == "higher" {
					worse = 1 - ratio
				}
				verdict := "pass"
				if worse > m.Bound {
					verdict = "FAIL"
					disagree++
				}
				fmt.Printf("%-16s %-18s %14.4f %14.4f %8.4f %6.2f  %s (set %d)\n",
					w.name, m.Name, a, b, ratio, m.Bound, verdict, n+1)
			}
			for _, e := range []setEntry{first, later} {
				if _, failed := e.tally(); failed > 0 {
					disagree++
				}
			}
		}
	}
	if disagree > 0 {
		return errors.New("bench: sets disagree beyond their bounds or had failed ops")
	}
	fmt.Println("\nall sets agree within every bound; no op failed")
	return nil
}
