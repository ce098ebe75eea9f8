package wl

import (
	"bytes"
	"slices"
	"strconv"

	"jobgraph/internal/dag"
	"jobgraph/internal/taskname"
)

// This file is the package's one WL refinement loop, shared by every
// base kernel and every label space. A node's label is an int32 index
// into the embedder's token table, and all scratch (token arrays,
// neighbor form lists, the composition buffer, shortest-path triples)
// is owned by an embedder that lives as long as its label space, so a
// warm embedder refines an already-seen graph shape without allocating
// at all (asserted by TestEmbedIntoZeroAlloc).
//
// Each round composes every node's refined label as the bytes
// "own(P:pred,…|S:succ,…)" (or "own(nbr,…)" undirected), each multiset
// sorted bytewise, compresses it to a token, and then records the
// round's features in ascending position (= ascending NodeID) order:
//
//	subtree        each node's token
//	edge           "N|<u>" per node, "E|<u>|<v>" per edge u→v
//	shortest-path  "SP|<u>|<v>|<d>" per directed shortest path, u==v at d=0
//
// The label space decides compression and the vector key a recorded
// label counts into (see fastEmbedder). The reference oracle in
// oracle_test.go pins the label strings, kernel values and hashed
// vectors to the loops this one replaced.

// Initial-label token indices (iteration-0 labels). Every token table
// starts with these, in this order.
const (
	initMap = iota
	initReduce
	initJoin
	initOther
	initUniform // "·" when Options.UseTypeLabels is false
	numInitLabels
)

var initLabels = [numInitLabels]string{"M", "R", "J", "?", "·"}

// Sentinels for lazily resolved record keys.
const (
	keyAbsent     int32 = -1 // label not in the (frozen) label space
	keyUnresolved int32 = -2
)

// token is one label a node can carry into the next round: its byte
// form inside composed labels, and the vector key a subtree record of
// it counts into (resolved on first record).
type token struct {
	form []byte
	key  int32
}

// spPath is one directed shortest path: positions u, v and distance d.
type spPath struct{ u, v, d int32 }

// fastEmbedder owns the refinement state of one label space; exactly
// one of dict, froz and buckets is set:
//
//	dict     interns every label; a refined label compresses to "#<id>"
//	froz     looks labels up; a miss compresses to "?%016x" of its
//	         FNV-1a hash and records nothing
//	buckets  keys every label by its FNV-1a hash mod buckets; a refined
//	         label compresses to "#<iteration>/<bucket>"
//
// Every cached form and key is specific to that space, so an embedder
// is only ever used with the space it was made for.
type fastEmbedder struct {
	dict    *Dictionary
	froz    *Frozen
	buckets int

	codes []int32  // current token per node position
	next  []int32  // next round's tokens (swapped, never reallocated)
	forms [][]byte // neighbor byte forms, sorted per multiset
	buf   []byte   // composition scratch for one label
	paths []spPath // shortest-path base: this graph's paths
	dist  []int32  // BFS scratch: distance from the source, -1 unseen
	queue []int32  // BFS scratch

	toks []token
	// byID[v] is the token of "#<v>" under dict or froz; 0 means not
	// yet made (token 0 is an initial label, never a compressed one).
	byID []int32
	// byHash holds the tokens made without a dictionary id: frozen
	// misses keyed by content hash, hashed tokens by iteration<<32|bucket.
	byHash map[uint64]int32
}

func newFastEmbedder(d *Dictionary, f *Frozen) *fastEmbedder {
	return (&fastEmbedder{dict: d, froz: f}).withInitTokens()
}

func newHashedEmbedder(buckets int) *fastEmbedder {
	return (&fastEmbedder{buckets: buckets}).withInitTokens()
}

func (e *fastEmbedder) withInitTokens() *fastEmbedder {
	e.toks = make([]token, numInitLabels)
	for i, l := range initLabels {
		e.toks[i] = token{form: []byte(l), key: keyUnresolved}
	}
	return e
}

// embedInto accumulates g's feature counts into vec. opt must already
// be validated. A warm embedder (same label space, all labels seen
// before) performs no allocations beyond growth of vec itself.
func (e *fastEmbedder) embedInto(vec Vector, g *dag.Graph, opt Options) {
	n := g.NumNodes()
	if n == 0 {
		return
	}
	e.codes = resizeRefs(e.codes, n)
	e.next = resizeRefs(e.next, n)
	for p := 0; p < n; p++ {
		e.codes[p] = initRef(g.NodeAt(p).Type, opt.UseTypeLabels)
	}
	if opt.Base == BaseShortestPath {
		// Distances are label-independent: compute once, record under
		// each round's labels.
		e.shortestPaths(g)
	}
	e.record(vec, g, opt.Base)

	for it := 0; it < opt.Iterations; it++ {
		for p := 0; p < n; p++ {
			e.compose(g, p, opt.Undirected)
			e.next[p] = e.compress(it)
		}
		e.codes, e.next = e.next, e.codes
		e.record(vec, g, opt.Base)
	}

	if e.buckets > 0 {
		return // the kernel tallies count exact embeddings only
	}
	obsEmbeds.Add(1)
	obsRefineRounds.Add(int64(opt.Iterations))
	obsVectorSize.Observe(float64(len(vec)))
	if e.dict != nil {
		obsDictLabels.Set(int64(e.dict.Len()))
	}
}

func initRef(t taskname.Type, useTypes bool) int32 {
	if !useTypes {
		return initUniform
	}
	switch t {
	case taskname.TypeMap:
		return initMap
	case taskname.TypeReduce:
		return initReduce
	case taskname.TypeJoin:
		return initJoin
	default:
		return initOther
	}
}

// form returns the byte form of node position p's current label.
func (e *fastEmbedder) form(p int32) []byte { return e.toks[e.codes[p]].form }

// compose builds node p's refined label into e.buf: own label, then
// "(P:pred,…|S:succ,…)" with each multiset sorted bytewise.
func (e *fastEmbedder) compose(g *dag.Graph, p int, undirected bool) {
	preds, succs := g.PredPos(p), g.SuccPos(p)
	buf := append(e.buf[:0], e.form(int32(p))...)
	if undirected {
		f := e.gather(preds, nil)
		f = e.gather(succs, f)
		slices.SortFunc(f, bytes.Compare)
		buf = append(buf, '(')
		buf = joinForms(buf, f)
		e.buf = append(buf, ')')
		return
	}
	f := e.gather(preds, nil)
	slices.SortFunc(f, bytes.Compare)
	buf = append(buf, "(P:"...)
	buf = joinForms(buf, f)
	f = e.gather(succs, nil)
	slices.SortFunc(f, bytes.Compare)
	buf = append(buf, "|S:"...)
	buf = joinForms(buf, f)
	e.buf = append(buf, ')')
}

// gather appends the byte forms of the given neighbor positions to dst
// (dst == nil restarts the shared scratch slice).
func (e *fastEmbedder) gather(nbrs []int32, dst [][]byte) [][]byte {
	if dst == nil {
		dst = e.forms[:0]
	}
	for _, q := range nbrs {
		dst = append(dst, e.form(q))
	}
	e.forms = dst
	return dst
}

func joinForms(buf []byte, forms [][]byte) []byte {
	for i, f := range forms {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, f...)
	}
	return buf
}

// compress resolves the refined label in e.buf, composed in round it,
// to the token the node carries into the next round.
func (e *fastEmbedder) compress(it int) int32 {
	switch {
	case e.dict != nil:
		return e.idToken(e.dict.intern(e.buf))
	case e.froz != nil:
		if v, ok := e.froz.ids[string(e.buf)]; ok {
			return e.idToken(v)
		}
		h := fnvSum(e.buf)
		if ref, ok := e.byHash[h]; ok {
			return ref
		}
		return e.hashToken(h, appendHashLabel(make([]byte, 0, 17), h))
	default:
		b := fnvSum(e.buf) % uint64(e.buckets)
		k := uint64(it)<<32 | b // buckets fit 32 bits, like every vector key
		if ref, ok := e.byHash[k]; ok {
			return ref
		}
		form := append(strconv.AppendInt([]byte{'#'}, int64(it), 10), '/')
		return e.hashToken(k, strconv.AppendUint(form, b, 10))
	}
}

// idToken returns the token of "#<v>", making it on first use.
func (e *fastEmbedder) idToken(v int) int32 {
	if grow := v + 1 - len(e.byID); grow > 0 {
		e.byID = append(e.byID, make([]int32, grow)...)
	}
	if e.byID[v] == 0 {
		e.byID[v] = int32(len(e.toks))
		e.toks = append(e.toks, token{form: strconv.AppendInt([]byte{'#'}, int64(v), 10), key: keyUnresolved})
	}
	return e.byID[v]
}

// hashToken makes the token with the given form under byHash key k.
func (e *fastEmbedder) hashToken(k uint64, form []byte) int32 {
	ref := int32(len(e.toks))
	e.toks = append(e.toks, token{form: form, key: keyUnresolved})
	if e.byHash == nil {
		e.byHash = make(map[uint64]int32)
	}
	e.byHash[k] = ref
	return ref
}

// record adds the current round's features to vec.
func (e *fastEmbedder) record(vec Vector, g *dag.Graph, base BaseKernel) {
	switch base {
	case BaseSubtree:
		for _, ref := range e.codes {
			t := &e.toks[ref]
			if t.key == keyUnresolved {
				t.key = e.key(t.form)
			}
			if t.key >= 0 {
				vec[int(t.key)]++
			}
		}
	case BaseEdge:
		for p := range e.codes {
			e.buf = append(append(e.buf[:0], "N|"...), e.form(int32(p))...)
			e.count(vec)
			for _, q := range g.SuccPos(p) {
				buf := append(append(e.buf[:0], "E|"...), e.form(int32(p))...)
				e.buf = append(append(buf, '|'), e.form(q)...)
				e.count(vec)
			}
		}
	case BaseShortestPath:
		for _, sp := range e.paths {
			buf := append(append(e.buf[:0], "SP|"...), e.form(sp.u)...)
			buf = append(append(buf, '|'), e.form(sp.v)...)
			e.buf = strconv.AppendInt(append(buf, '|'), int64(sp.d), 10)
			e.count(vec)
		}
	}
}

// count adds one occurrence of the label in e.buf to vec.
func (e *fastEmbedder) count(vec Vector) {
	if k := e.key(e.buf); k >= 0 {
		vec[int(k)]++
	}
}

// key returns the vector key of a recorded label, or keyAbsent when a
// frozen space does not hold it.
func (e *fastEmbedder) key(label []byte) int32 {
	switch {
	case e.dict != nil:
		return int32(e.dict.intern(label))
	case e.froz != nil:
		if v, ok := e.froz.ids[string(label)]; ok {
			return int32(v)
		}
		return keyAbsent
	default:
		return int32(fnvSum(label) % uint64(e.buckets))
	}
}

// shortestPaths fills e.paths with every directed shortest path of g by
// a BFS over successor positions from each source in ascending order.
func (e *fastEmbedder) shortestPaths(g *dag.Graph) {
	n := g.NumNodes()
	e.paths = e.paths[:0]
	e.dist = resizeRefs(e.dist, n)
	for src := int32(0); src < int32(n); src++ {
		for i := range e.dist {
			e.dist[i] = -1
		}
		e.dist[src] = 0
		queue := append(e.queue[:0], src)
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			e.paths = append(e.paths, spPath{u: src, v: u, d: e.dist[u]})
			for _, v := range g.SuccPos(int(u)) {
				if e.dist[v] < 0 {
					e.dist[v] = e.dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		e.queue = queue
	}
}

func resizeRefs(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// fnvSum is FNV-1a over b, allocation-free (hash/fnv's New64a escapes).
func fnvSum(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// appendHashLabel appends the frozen-miss form "?%016x" of h.
func appendHashLabel(dst []byte, h uint64) []byte {
	const hexdigits = "0123456789abcdef"
	dst = append(dst, '?')
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexdigits[(h>>uint(shift))&0xf])
	}
	return dst
}
