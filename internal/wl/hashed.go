package wl

import (
	"fmt"
	"runtime"
	"sort"

	"jobgraph/internal/dag"
	"jobgraph/internal/par"
)

// HashedFeatures embeds every graph using feature hashing instead of a
// shared dictionary: each refined label is FNV-hashed into a bucket in
// [0, buckets). Because no mutable dictionary is shared, graphs embed
// fully in parallel — the scalable path for corpus sizes where the
// sequential dictionary walk dominates. The price is hash collisions,
// which only ever *increase* measured similarity; with buckets well
// above the true label count the distortion is negligible (quantified
// by the exact-vs-hashed agreement test and ablation).
//
// Vectors hashed with the same bucket count are mutually comparable;
// buckets <= 0 selects 1<<20. workers <= 0 selects GOMAXPROCS. Only the
// subtree base kernel is supported: the other bases exist for the
// comparison ablations, not the scale path.
func HashedFeatures(graphs []*dag.Graph, opt Options, buckets, workers int) ([]Vector, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Base != BaseSubtree {
		return nil, fmt.Errorf("wl: hashed features support the subtree base only, got %s", opt.Base)
	}
	if buckets <= 0 {
		buckets = 1 << 20
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(graphs) {
		workers = len(graphs)
	}

	// One contiguous shard per worker, each with its own embedder, so
	// scratch buffers and the token cache amortize across every graph
	// of the shard. Each index belongs to exactly one shard; no locks.
	out := make([]Vector, len(graphs))
	err := par.For(workers, workers, func(s int) error {
		e := newHashedEmbedder(buckets)
		for i := len(graphs) * s / workers; i < len(graphs)*(s+1)/workers; i++ {
			vec := make(Vector)
			e.embedInto(vec, graphs[i], opt)
			out[i] = vec
		}
		return nil
	}, nil)
	return out, err
}

// hashedEmbed computes one graph's hashed WL subtree vector with a
// throwaway embedder — the one-off entry point for callers outside the
// batched HashedFeatures fan-out (e.g. ANNIndex.AddGraph).
func hashedEmbed(g *dag.Graph, opt Options, buckets int) Vector {
	vec := make(Vector)
	newHashedEmbedder(buckets).embedInto(vec, g, opt)
	return vec
}

// CollisionRate estimates the fraction of distinct exact labels that
// share a bucket with another label for the given corpus — a diagnostic
// for picking the bucket count.
func CollisionRate(graphs []*dag.Graph, opt Options, buckets int) (float64, error) {
	if err := opt.validate(); err != nil {
		return 0, err
	}
	if buckets <= 0 {
		buckets = 1 << 20
	}
	// Collect exact labels via a throwaway dictionary walk.
	d := NewDictionary()
	for _, g := range graphs {
		if _, err := d.Embed(g, opt); err != nil {
			return 0, err
		}
	}
	labels := make([]string, 0, len(d.ids))
	for l := range d.ids {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	bucketOf := func(l string) uint64 { return fnvSum([]byte(l)) % uint64(buckets) }
	byBucket := make(map[uint64]int, len(labels))
	for _, l := range labels {
		byBucket[bucketOf(l)]++
	}
	if len(labels) == 0 {
		return 0, nil
	}
	colliding := 0
	for _, l := range labels {
		if byBucket[bucketOf(l)] > 1 {
			colliding++
		}
	}
	return float64(colliding) / float64(len(labels)), nil
}
