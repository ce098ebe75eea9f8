package core

import (
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"jobgraph/internal/cluster"
	"jobgraph/internal/linalg"
	"jobgraph/internal/trace"
)

// swapSpectral installs a replacement spectral implementation for the
// duration of the test.
func swapSpectral(t *testing.T, fn func(*linalg.Matrix, cluster.SpectralOptions) (*cluster.SpectralResult, error)) {
	t.Helper()
	orig := spectralFn
	spectralFn = fn
	t.Cleanup(func() { spectralFn = orig })
}

func degradeConfig(seed int64) Config {
	cfg := DefaultConfig(testWindow, seed)
	cfg.SampleSize = 30
	cfg.Groups = 3
	return cfg
}

func TestSpectralFailureFallsBackToSizeQuantiles(t *testing.T) {
	swapSpectral(t, func(*linalg.Matrix, cluster.SpectralOptions) (*cluster.SpectralResult, error) {
		return nil, errors.New("injected eigensolver meltdown")
	})
	an, err := Run(genJobs(t, 800, 3), degradeConfig(3))
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	if len(an.Labels) != 30 || len(an.Groups) != 3 {
		t.Fatalf("fallback produced %d labels, %d groups; want 30, 3", len(an.Labels), len(an.Groups))
	}
	found := false
	for _, w := range an.Warnings {
		if strings.Contains(w, "size-quantile") && strings.Contains(w, "injected eigensolver meltdown") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallback not surfaced in warnings: %v", an.Warnings)
	}
	// Quantile groups must cover every sample and respect size ordering
	// on the medians.
	total := 0
	for _, g := range an.Groups {
		total += g.Count
		if g.Count == 0 {
			t.Fatalf("empty fallback group %s", g.Name)
		}
	}
	if total != 30 {
		t.Fatalf("fallback groups cover %d of 30 samples", total)
	}
}

func TestNonFiniteAffinityFallsBackToSizeQuantiles(t *testing.T) {
	// A NaN similarity reaching the real spectral step is an error, so
	// the run takes the documented size-quantile fallback and says why.
	swapSpectral(t, func(sim *linalg.Matrix, opt cluster.SpectralOptions) (*cluster.SpectralResult, error) {
		sim.Set(0, 1, math.NaN())
		sim.Set(1, 0, math.NaN())
		return cluster.Spectral(sim, opt)
	})
	an, err := Run(genJobs(t, 800, 3), degradeConfig(3))
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	if len(an.Labels) != 30 || len(an.Groups) != 3 {
		t.Fatalf("fallback produced %d labels, %d groups; want 30, 3", len(an.Labels), len(an.Groups))
	}
	if want := sizeQuantileLabels(an.Graphs, 3); !slices.Equal(an.Labels, want) {
		t.Fatalf("labels %v, want the size-quantile labels %v", an.Labels, want)
	}
	found := false
	for _, w := range an.Warnings {
		if strings.Contains(w, "size-quantile") && strings.Contains(w, "non-finite affinity") {
			found = true
		}
	}
	if !found {
		t.Fatalf("non-finite affinity fallback not surfaced in warnings: %v", an.Warnings)
	}
}

func TestSpectralWarningsPropagate(t *testing.T) {
	swapSpectral(t, func(sim *linalg.Matrix, opt cluster.SpectralOptions) (*cluster.SpectralResult, error) {
		res, err := cluster.Spectral(sim, opt)
		if err != nil {
			return nil, err
		}
		res.Warnings = append(res.Warnings, "synthetic eigensolver retry warning")
		return res, nil
	})
	an, err := Run(genJobs(t, 800, 4), degradeConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range an.Warnings {
		if w == "synthetic eigensolver retry warning" {
			found = true
		}
	}
	if !found {
		t.Fatalf("spectral warnings not propagated: %v", an.Warnings)
	}
}

func TestIngestStatsSurfaceOnAnalysis(t *testing.T) {
	cfg := degradeConfig(5)
	cfg.Ingest = &trace.ReadStats{
		Rows:         1234,
		BadRows:      7,
		ByClass:      map[trace.ErrClass]int64{trace.ErrClassNumeric: 7},
		Partial:      true,
		PartialCause: io.ErrUnexpectedEOF,
	}
	an, err := Run(genJobs(t, 800, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !an.Partial {
		t.Fatal("truncated ingest not marked Partial on analysis")
	}
	var sawPartial, sawBad bool
	for _, w := range an.Warnings {
		if strings.Contains(w, "truncated") {
			sawPartial = true
		}
		if strings.Contains(w, "7 malformed rows") {
			sawBad = true
		}
	}
	if !sawPartial || !sawBad {
		t.Fatalf("ingest warnings missing: %v", an.Warnings)
	}
}

func TestCleanRunNoWarnings(t *testing.T) {
	an, err := Run(genJobs(t, 800, 6), degradeConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Warnings) != 0 || an.Partial {
		t.Fatalf("clean run degraded: partial=%v warnings=%v", an.Partial, an.Warnings)
	}
}

func TestSizeQuantileLabels(t *testing.T) {
	an, err := Run(genJobs(t, 800, 7), degradeConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	labels := sizeQuantileLabels(an.Graphs, 3)
	if len(labels) != len(an.Graphs) {
		t.Fatalf("labels = %d, want %d", len(labels), len(an.Graphs))
	}
	counts := map[int]int{}
	for i, l := range labels {
		if l < 0 || l >= 3 {
			t.Fatalf("label[%d] = %d out of range", i, l)
		}
		counts[l]++
	}
	if len(counts) != 3 {
		t.Fatalf("quantile buckets = %d, want 3", len(counts))
	}
	// Bucket membership must follow size: nothing in a lower bucket may
	// be larger than something in a higher bucket.
	maxOf := map[int]int{}
	minOf := map[int]int{}
	for i, l := range labels {
		s := an.Graphs[i].Size()
		if v, ok := maxOf[l]; !ok || s > v {
			maxOf[l] = s
		}
		if v, ok := minOf[l]; !ok || s < v {
			minOf[l] = s
		}
	}
	for b := 0; b < 2; b++ {
		if maxOf[b] > minOf[b+1] {
			t.Fatalf("bucket %d max size %d exceeds bucket %d min %d", b, maxOf[b], b+1, minOf[b+1])
		}
	}
}
