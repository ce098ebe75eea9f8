package wl

import (
	"math/rand"
	"testing"
)

// TestEmbedIntoZeroAlloc pins the core refinement guarantee: once an
// embedder has seen a graph's label universe, re-embedding performs no
// heap allocations at all — every round runs over reused code arrays,
// the shared composition buffer, and no-alloc map lookups.
func TestEmbedIntoZeroAlloc(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(3)), "alloc", 40)
	opt := DefaultOptions()

	t.Run("dictionary", func(t *testing.T) {
		d := NewDictionary()
		e := newFastEmbedder(d, nil)
		vec := make(Vector)
		e.embedInto(vec, g, opt) // warm: interns every label this graph produces
		allocs := testing.AllocsPerRun(100, func() {
			clear(vec)
			e.embedInto(vec, g, opt)
		})
		if allocs != 0 {
			t.Fatalf("warm dictionary embedInto allocates %.1f objects/run, want 0", allocs)
		}
	})

	t.Run("frozen", func(t *testing.T) {
		d := NewDictionary()
		if _, err := d.Embed(g, opt); err != nil {
			t.Fatal(err)
		}
		fz := d.Freeze()
		e := newFastEmbedder(nil, fz)
		vec := make(Vector)
		e.embedInto(vec, g, opt)
		allocs := testing.AllocsPerRun(100, func() {
			clear(vec)
			e.embedInto(vec, g, opt)
		})
		if allocs != 0 {
			t.Fatalf("warm frozen embedInto allocates %.1f objects/run, want 0", allocs)
		}
	})

	t.Run("frozen-unseen-labels", func(t *testing.T) {
		// Serve-time worst case: the frozen label space was built from a
		// different graph, so refinement keeps hitting frozen-miss hashed
		// labels. After the first pass caches them, re-embedding is still
		// allocation-free.
		d := NewDictionary()
		if _, err := d.Embed(chainGraph(t, "other", 4), opt); err != nil {
			t.Fatal(err)
		}
		fz := d.Freeze()
		e := newFastEmbedder(nil, fz)
		vec := make(Vector)
		e.embedInto(vec, g, opt)
		allocs := testing.AllocsPerRun(100, func() {
			clear(vec)
			e.embedInto(vec, g, opt)
		})
		if allocs != 0 {
			t.Fatalf("warm frozen-miss embedInto allocates %.1f objects/run, want 0", allocs)
		}
	})
}

// TestHashedEmbedWarmAllocs pins the hashed-feature fast path: the
// embedder's scratch is reused across graphs, so a warm re-embed
// allocates only the result vector itself, nothing per node or per
// round.
func TestHashedEmbedWarmAllocs(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(5)), "hashed-alloc", 40)
	opt := DefaultOptions()
	e := newHashedEmbedder(64)
	e.embedInto(make(Vector), g, opt) // warm the token caches
	allocs := testing.AllocsPerRun(100, func() {
		vec := make(Vector)
		e.embedInto(vec, g, opt)
		if len(vec) == 0 {
			t.Fatal("empty hashed vector")
		}
	})
	// The only remaining allocations are the returned Vector map and its
	// buckets; with 64 hash buckets that is a handful of objects, far
	// below one per node (40) let alone per node-round (160).
	if allocs > 10 {
		t.Fatalf("warm hashed embed allocates %.1f objects/run, want <= 10 (vector only)", allocs)
	}
}
