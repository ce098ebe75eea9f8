package wl

// Reference oracle: the map-based refinement loop (embed, refineLabel,
// the map shortest paths and edge/shortest-path recorders) and the
// feature-hashing embedder as they stood before refinement was folded
// into one loop, kept verbatim apart from "legacy" name prefixes, the
// dropped obs tallies, and two adapters standing in for the deleted
// labeler methods. The tests below pin the single loop to them: equal
// kernel values and label strings under a Dictionary, equal vectors
// under a Frozen view (the path a saved model classifies through), and
// equal hashed vectors (the vectors a saved ANN index stores).

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"jobgraph/internal/dag"
)

type legacyLabeler interface {
	labelID(label string) (int, bool)
}

// legacyDict interns unseen labels, as Dictionary.labelID did.
type legacyDict struct{ d *Dictionary }

func (l legacyDict) labelID(label string) (int, bool) {
	if v, ok := l.d.ids[label]; ok {
		return v, true
	}
	v := len(l.d.ids)
	l.d.ids[label] = v
	return v, true
}

// legacyFrozen reports unseen labels absent, as Frozen.labelID did.
type legacyFrozen struct{ f *Frozen }

func (l legacyFrozen) labelID(label string) (int, bool) {
	v, ok := l.f.ids[label]
	return v, ok
}

func legacyEmbed(ld legacyLabeler, g *dag.Graph, opt Options) (Vector, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	vec := make(Vector)
	ids := g.NodeIDs()
	if len(ids) == 0 {
		return vec, nil
	}

	labels := make(map[dag.NodeID]string, len(ids))
	for _, id := range ids {
		if opt.UseTypeLabels {
			labels[id] = g.Node(id).Type.String()
		} else {
			labels[id] = "·"
		}
	}
	var dists map[dag.NodeID]map[dag.NodeID]int
	if opt.Base == BaseShortestPath {
		dists = legacyShortestPaths(g)
	}
	record := func() {
		switch opt.Base {
		case BaseShortestPath:
			legacyRecordShortestPath(ld, vec, labels, dists)
		case BaseEdge:
			legacyRecordEdge(ld, vec, g, labels)
		default:
			for _, id := range ids {
				if v, ok := ld.labelID(labels[id]); ok {
					vec[v]++
				}
			}
		}
	}
	record() // iteration 0

	for it := 0; it < opt.Iterations; it++ {
		next := make(map[dag.NodeID]string, len(ids))
		for _, id := range ids {
			next[id] = legacyRefineLabel(g, id, labels, opt.Undirected)
		}
		for id, l := range next {
			if v, ok := ld.labelID(l); ok {
				next[id] = fmt.Sprintf("#%d", v)
			} else {
				next[id] = legacyHashLabel(l)
			}
		}
		labels = next
		record()
	}
	return vec, nil
}

func legacyHashLabel(l string) string {
	h := fnv.New64a()
	h.Write([]byte(l))
	return fmt.Sprintf("?%016x", h.Sum64())
}

func legacyRefineLabel(g *dag.Graph, id dag.NodeID, labels map[dag.NodeID]string, undirected bool) string {
	var b strings.Builder
	b.WriteString(labels[id])
	if undirected {
		nbr := make([]string, 0, g.InDegree(id)+g.OutDegree(id))
		for _, p := range g.Pred(id) {
			nbr = append(nbr, labels[p])
		}
		for _, s := range g.Succ(id) {
			nbr = append(nbr, labels[s])
		}
		sort.Strings(nbr)
		b.WriteString("(")
		b.WriteString(strings.Join(nbr, ","))
		b.WriteString(")")
		return b.String()
	}
	preds := make([]string, 0, g.InDegree(id))
	for _, p := range g.Pred(id) {
		preds = append(preds, labels[p])
	}
	succs := make([]string, 0, g.OutDegree(id))
	for _, s := range g.Succ(id) {
		succs = append(succs, labels[s])
	}
	sort.Strings(preds)
	sort.Strings(succs)
	b.WriteString("(P:")
	b.WriteString(strings.Join(preds, ","))
	b.WriteString("|S:")
	b.WriteString(strings.Join(succs, ","))
	b.WriteString(")")
	return b.String()
}

func legacyShortestPaths(g *dag.Graph) map[dag.NodeID]map[dag.NodeID]int {
	ids := g.NodeIDs()
	all := make(map[dag.NodeID]map[dag.NodeID]int, len(ids))
	for _, src := range ids {
		dist := map[dag.NodeID]int{src: 0}
		queue := []dag.NodeID{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Succ(u) {
				if _, seen := dist[v]; !seen {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		all[src] = dist
	}
	return all
}

func legacyRecordEdge(ld legacyLabeler, vec Vector, g *dag.Graph, labels map[dag.NodeID]string) {
	for _, u := range g.NodeIDs() {
		if id, ok := ld.labelID("N|" + labels[u]); ok {
			vec[id]++
		}
		for _, v := range g.Succ(u) {
			if id, ok := ld.labelID(fmt.Sprintf("E|%s|%s", labels[u], labels[v])); ok {
				vec[id]++
			}
		}
	}
}

func legacyRecordShortestPath(ld legacyLabeler, vec Vector,
	labels map[dag.NodeID]string, dists map[dag.NodeID]map[dag.NodeID]int) {
	for u, row := range dists {
		lu := labels[u]
		for v, dist := range row {
			if id, ok := ld.labelID(fmt.Sprintf("SP|%s|%s|%d", lu, labels[v], dist)); ok {
				vec[id]++
			}
		}
	}
}

// The feature-hashing embedder. Its label refs put the initial labels
// below legacyTokenBase and compressed tokens at and above it.
const legacyTokenBase = 16

var legacyInitForms = [numInitLabels][]byte{[]byte("M"), []byte("R"), []byte("J"), []byte("?"), []byte("·")}

type legacyHashedEmbedder struct {
	buckets int

	codes []int32
	next  []int32
	forms [][]byte
	buf   []byte

	initBucket [numInitLabels]int32

	toks   []legacyHashedTok
	tokRef map[[2]int]int32
}

type legacyHashedTok struct {
	form []byte
	rec  int
}

func newLegacyHashedEmbedder(buckets int) *legacyHashedEmbedder {
	e := &legacyHashedEmbedder{buckets: buckets, tokRef: make(map[[2]int]int32)}
	for i := range e.initBucket {
		e.initBucket[i] = keyUnresolved
	}
	return e
}

func (e *legacyHashedEmbedder) embed(g *dag.Graph, opt Options) Vector {
	vec := make(Vector)
	n := g.NumNodes()
	if n == 0 {
		return vec
	}
	e.codes = resizeRefs(e.codes, n)
	e.next = resizeRefs(e.next, n)
	for p := 0; p < n; p++ {
		e.codes[p] = initRef(g.NodeAt(p).Type, opt.UseTypeLabels)
	}
	e.record(vec, n)
	for it := 0; it < opt.Iterations; it++ {
		for p := 0; p < n; p++ {
			e.compose(g, p, opt.Undirected)
			e.next[p] = e.tokenRef(it, int(fnvSum(e.buf)%uint64(e.buckets)))
		}
		e.codes, e.next = e.next, e.codes
		e.record(vec, n)
	}
	return vec
}

func (e *legacyHashedEmbedder) form(ref int32) []byte {
	if ref < legacyTokenBase {
		return legacyInitForms[ref]
	}
	return e.toks[ref-legacyTokenBase].form
}

func (e *legacyHashedEmbedder) compose(g *dag.Graph, p int, undirected bool) {
	preds, succs := g.PredPos(p), g.SuccPos(p)
	buf := append(e.buf[:0], e.form(e.codes[p])...)
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

func (e *legacyHashedEmbedder) gather(nbrs []int32, dst [][]byte) [][]byte {
	if dst == nil {
		dst = e.forms[:0]
	}
	for _, q := range nbrs {
		dst = append(dst, e.form(e.codes[q]))
	}
	e.forms = dst
	return dst
}

func (e *legacyHashedEmbedder) tokenRef(it, bucket int) int32 {
	k := [2]int{it, bucket}
	if ref, ok := e.tokRef[k]; ok {
		return ref
	}
	form := strconv.AppendInt([]byte{'#'}, int64(it), 10)
	form = append(form, '/')
	form = strconv.AppendInt(form, int64(bucket), 10)
	ref := legacyTokenBase + int32(len(e.toks))
	e.toks = append(e.toks, legacyHashedTok{form: form, rec: int(fnvSum(form) % uint64(e.buckets))})
	e.tokRef[k] = ref
	return ref
}

func (e *legacyHashedEmbedder) record(vec Vector, n int) {
	for p := 0; p < n; p++ {
		ref := e.codes[p]
		if ref < legacyTokenBase {
			if e.initBucket[ref] == keyUnresolved {
				e.initBucket[ref] = int32(legacyBucketOf(initLabels[ref], e.buckets))
			}
			vec[int(e.initBucket[ref])]++
			continue
		}
		vec[e.toks[ref-legacyTokenBase].rec]++
	}
}

func legacyBucketOf(label string, buckets int) int {
	h := fnv.New64a()
	h.Write([]byte(label))
	return int(h.Sum64() % uint64(buckets))
}

// oracleOptions covers every base under the option combinations that
// change the composed label format.
func oracleOptions() []Options {
	var out []Options
	for _, base := range []BaseKernel{BaseSubtree, BaseShortestPath, BaseEdge} {
		out = append(out,
			Options{Iterations: 3, UseTypeLabels: true, Base: base},
			Options{Iterations: 2, UseTypeLabels: true, Undirected: true, Base: base},
			Options{Iterations: 2, Base: base},
			Options{Iterations: 0, UseTypeLabels: true, Base: base},
		)
	}
	return out
}

// oracleCorpus mixes the sample shapes with an empty graph and graphs
// larger than any in sampleGraphs.
func oracleCorpus(t testing.TB, seed int64) []*dag.Graph {
	graphs := append(sampleGraphs(t, 30, seed), dag.New("empty"))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 5; i++ {
		graphs = append(graphs, randomDAG(rng, fmt.Sprintf("big%d", i), 15+rng.Intn(10)))
	}
	return graphs
}

// canonicalLabels returns a dictionary's label strings with every
// compressed token "#<id>" expanded, recursively, into the label it
// stands for, and every neighbor multiset re-sorted after expansion
// (the stored order sorts token strings, so it follows the numbering).
// Two dictionaries that interned the same labels under different token
// numberings have equal canonical sets.
func canonicalLabels(d *Dictionary) map[string]bool {
	byID := make([]string, len(d.ids))
	for l, id := range d.ids {
		byID[id] = l
	}
	memo := make(map[int]string)
	var label func(s string) string
	form := func(f string) string {
		if f == "" || f[0] != '#' {
			return f
		}
		id, err := strconv.Atoi(f[1:])
		if err != nil {
			panic(fmt.Sprintf("token %q: %v", f, err))
		}
		if _, ok := memo[id]; !ok {
			memo[id] = "{" + label(byID[id]) + "}"
		}
		return memo[id]
	}
	multiset := func(list string) string {
		if list == "" {
			return ""
		}
		parts := strings.Split(list, ",")
		for i, f := range parts {
			parts[i] = form(f)
		}
		sort.Strings(parts)
		return strings.Join(parts, ",")
	}
	label = func(s string) string {
		switch {
		case strings.HasPrefix(s, "N|"), strings.HasPrefix(s, "E|"), strings.HasPrefix(s, "SP|"):
			parts := strings.Split(s, "|")
			for i := range parts[1:] {
				parts[i+1] = form(parts[i+1])
			}
			return strings.Join(parts, "|")
		case strings.HasSuffix(s, ")"):
			head, body, _ := strings.Cut(s[:len(s)-1], "(")
			if preds, succs, directed := strings.Cut(body, "|S:"); directed {
				return form(head) + "(P:" + multiset(strings.TrimPrefix(preds, "P:")) + "|S:" + multiset(succs) + ")"
			}
			return form(head) + "(" + multiset(body) + ")"
		default:
			return form(s)
		}
	}
	out := make(map[string]bool, len(byID))
	for _, l := range byID {
		out[label(l)] = true
	}
	return out
}

func legacyFeatures(t *testing.T, graphs []*dag.Graph, opt Options) ([]Vector, *Dictionary) {
	t.Helper()
	d := NewDictionary()
	vecs := make([]Vector, len(graphs))
	for i, g := range graphs {
		v, err := legacyEmbed(legacyDict{d}, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		vecs[i] = v
	}
	return vecs, d
}

// TestOracleDictionary: under a fresh Dictionary the single loop yields
// the same normalized kernel, value for value, and interns the same
// label strings up to the numbering of compressed tokens.
func TestOracleDictionary(t *testing.T) {
	graphs := oracleCorpus(t, 21)
	for _, opt := range oracleOptions() {
		want, wantDict := legacyFeatures(t, graphs, opt)
		got, gotDict, err := Features(graphs, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range graphs {
			for j := i; j < len(graphs); j++ {
				if g, w := Similarity(got[i], got[j]), Similarity(want[i], want[j]); g != w {
					t.Fatalf("%+v: k(%d,%d) = %v, oracle %v", opt, i, j, g, w)
				}
			}
		}
		if gotDict.Len() != wantDict.Len() {
			t.Fatalf("%+v: %d labels, oracle %d", opt, gotDict.Len(), wantDict.Len())
		}
		if g, w := canonicalLabels(gotDict), canonicalLabels(wantDict); !reflect.DeepEqual(g, w) {
			t.Fatalf("%+v: interned label strings differ from the oracle's", opt)
		}
	}
}

// TestOracleFrozen: against a frozen label space, trained either by the
// oracle (a model saved before the single loop) or by the single loop,
// vectors equal the oracle's exactly. The training corpus itself hits
// every label; a corpus from another seed mostly misses.
func TestOracleFrozen(t *testing.T) {
	train := oracleCorpus(t, 22)
	queries := map[string][]*dag.Graph{"hits": train, "misses": oracleCorpus(t, 23)}
	for _, opt := range oracleOptions() {
		_, legacyTrained := legacyFeatures(t, train, opt)
		_, trained, err := Features(train, opt)
		if err != nil {
			t.Fatal(err)
		}
		for trainer, d := range map[string]*Dictionary{"oracle": legacyTrained, "single-loop": trained} {
			fz := d.Freeze()
			for kind, graphs := range queries {
				for i, g := range graphs {
					want, err := legacyEmbed(legacyFrozen{fz}, g, opt)
					if err != nil {
						t.Fatal(err)
					}
					got, err := fz.Embed(g, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%+v, %s-trained, %s: graph %d: %v, oracle %v", opt, trainer, kind, i, got, want)
					}
				}
			}
		}
	}
}

// TestOracleHashed: HashedFeatures equals the old hashing embedder's
// vectors exactly, at a bucket count with heavy collisions and at the
// default.
func TestOracleHashed(t *testing.T) {
	graphs := oracleCorpus(t, 24)
	for _, opt := range oracleOptions() {
		if opt.Base != BaseSubtree {
			continue
		}
		for _, buckets := range []int{64, 1 << 20} {
			got, err := HashedFeatures(graphs, opt, buckets, 2)
			if err != nil {
				t.Fatal(err)
			}
			e := newLegacyHashedEmbedder(buckets)
			for i, g := range graphs {
				if want := e.embed(g, opt); !reflect.DeepEqual(got[i], want) {
					t.Fatalf("%+v, %d buckets: graph %d: %v, oracle %v", opt, buckets, i, got[i], want)
				}
			}
		}
	}
}
