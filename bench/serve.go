package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jobgraph/internal/core"
	"jobgraph/internal/dag"
	"jobgraph/internal/serve"
	"jobgraph/internal/trace"
	"jobgraph/internal/tracegen"
	"jobgraph/internal/wl"
)

const (
	// heldOutSeed offsets the held-out stream's generator seed from the
	// training stream's, so no served job was trained on.
	heldOutSeed = 1 << 32
	// similarK is the k every GET /v1/similar asks for.
	similarK = 10
	// minRecall is the least tie-aware recall@10 the ANN answers may
	// have against exact cosine over the same vectors; below it the
	// answers are wrong even though they match QueryJob.
	minRecall = 0.9
	// syncEvery is how many jobs the traced replay journals per fsync:
	// the batcher's default batch size.
	syncEvery = 64
)

// A serve run spends warmShare of --seconds warming up, then alternates
// rounds open-loop windows, which the latency metrics come from, with
// closed-loop windows, which throughput comes from; openShare of each
// round is its open-loop window.
const (
	warmShare = 0.1
	rounds    = 9
	openShare = 0.6
)

// server is a serving workload: a serve.Server booted as cmd/jobgraphd
// boots it, driven in-process through Handler().ServeHTTP, so no socket
// or connection is involved.
type server struct {
	sz       sizes
	seed     int64
	dir      string
	rate     float64 // open-loop requests per second
	capacity float64 // closed-loop requests per second the windows are sized for
	getShare float64 // share of requests that are GET /v1/similar

	model   *core.Model
	srv     *serve.Server
	handler http.Handler
	pool    []heldJob    // held-out DAG jobs POSTed in turn
	ix      *wl.ANNIndex // serve-mixed: the similarity index over pool
	queries []int        // pool indexes GET /v1/similar asks about

	next atomic.Int64 // requests issued; names POSTed jobs uniquely

	// Expected answers, computed offline after the phases.
	wantClass map[int]verdict
	wantHits  map[int][]wl.Hit
}

// heldJob is one job of the held-out stream.
type heldJob struct {
	name  string
	tasks []byte     // the job's task rows as a JSON array
	graph *dag.Graph // the DAG the server assembles from those rows
}

// verdict is a classification as POST /v1/jobs reports it.
type verdict struct {
	group string
	score float64
}

func setupServe(dir string, seed int64, sz sizes, mixed bool) (*server, error) {
	train, err := tracegen.GenerateJobs(tracegen.DefaultConfig(sz.trainJobs, seed))
	if err != nil {
		return nil, err
	}
	cfg := analysisConfig(seed, sz.trainSample)
	an, err := core.Run(train, cfg)
	if err != nil {
		return nil, err
	}
	model, err := core.ExtractModel(an, cfg.Conflate)
	if err != nil {
		return nil, err
	}
	pool, err := heldOut(seed, sz.heldJobs)
	if err != nil {
		return nil, err
	}
	s := &server{sz: sz, seed: seed, dir: dir, rate: sz.classifyRate, capacity: sz.classifyCapacity, model: model, pool: pool}
	if mixed {
		s.rate, s.capacity, s.getShare = sz.mixedRate, sz.mixedCapacity, sz.getShare
		if err := s.buildIndex(); err != nil {
			return nil, err
		}
	}
	// jobgraphd's defaults: a 30 s request deadline, one classify worker
	// per CPU, and the default batcher (64 jobs, 25 ms, queue 1024).
	s.srv, err = serve.New(serve.Config{
		Model:          model,
		ANN:            s.ix,
		JournalPath:    filepath.Join(dir, "serve.journal"),
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	s.handler = s.srv.Handler()
	return s, nil
}

// heldOut generates n jobs from a second seed stream and keeps those
// with dependency structure, each renamed uniquely.
func heldOut(seed int64, n int) ([]heldJob, error) {
	jobs, err := tracegen.GenerateJobs(tracegen.DefaultConfig(n, seed+heldOutSeed))
	if err != nil {
		return nil, err
	}
	var pool []heldJob
	for _, j := range jobs {
		name := fmt.Sprintf("held_%07d", len(pool)+1)
		g, err := assemble(name, j.Tasks)
		if err != nil {
			return nil, err
		}
		if g.Size() == 0 {
			continue // a flat job: no DAG to classify
		}
		tasks, err := json.Marshal(j.Tasks)
		if err != nil {
			return nil, err
		}
		pool = append(pool, heldJob{name: name, tasks: tasks, graph: g})
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("bench: no DAG jobs among %d held-out jobs", n)
	}
	return pool, nil
}

// assemble builds a job's DAG from its rows the way serve.Server does
// before classifying it.
func assemble(name string, rows []trace.TaskRecord) (*dag.Graph, error) {
	specs := make([]dag.TaskSpec, 0, len(rows))
	for _, t := range rows {
		specs = append(specs, dag.TaskSpec{
			Name:      t.TaskName,
			Duration:  t.Duration(),
			Instances: t.InstanceNum,
			PlanCPU:   t.PlanCPU,
			PlanMem:   t.PlanMem,
		})
	}
	res, err := dag.FromTasks(name, specs, dag.BuildOptions{SkipMissingDeps: true})
	return res.Graph, err
}

// buildIndex indexes the held-out pool as core's wl.sketch and
// wl.annindex stages do, and picks the query ids.
func (s *server) buildIndex() error {
	sk := wl.DefaultSketchOptions()
	graphs := make([]*dag.Graph, len(s.pool))
	ids := make([]string, len(s.pool))
	for i, h := range s.pool {
		graphs[i], ids[i] = h.graph, h.name
	}
	vectors, err := wl.HashedFeatures(graphs, s.model.WL, sk.Buckets, 0)
	if err != nil {
		return err
	}
	sigs, err := wl.Sketches(vectors, sk, 0)
	if err != nil {
		return err
	}
	s.ix, err = wl.NewANNIndexFromSketches(s.model.WL, sk, ids, vectors, sigs)
	if err != nil {
		return err
	}
	n := min(s.sz.queries, len(s.pool))
	s.queries = rand.New(rand.NewSource(s.seed)).Perm(len(s.pool))[:n]
	return nil
}

func (s *server) close() error { return s.srv.Drain() }

// plan is request i's kind and target: with probability getShare a GET
// of a query id, otherwise a POST of a pool job, each kind cycling
// through its targets. It is a pure function of (seed, i), so any client
// may compute it.
func (s *server) plan(i int64) (get bool, target int) {
	x := splitmix(uint64(s.seed)<<32 ^ uint64(i))
	if s.getShare > 0 && float64(x>>11)/(1<<53) < s.getShare {
		return true, int(i % int64(len(s.queries)))
	}
	return false, int(i % int64(len(s.pool)))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// outcome is one request and its response, checked after the phase.
type outcome struct {
	get    bool
	target int
	name   string // the POSTed job's name
	status int
	ms     float64 // latency; +Inf once the check fails it
	got    verdict
	hits   []serve.SimilarHit
}

// body is POST /v1/jobs's request body for pool job j under name.
func (s *server) body(name string, j int) []byte {
	tasks := s.pool[j].tasks
	b := make([]byte, 0, len(tasks)+len(name)+24)
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"tasks":`...)
	b = append(b, tasks...)
	return append(b, '}')
}

// do sends request i through the handler and decodes its response.
func (s *server) do(i int64) outcome {
	get, target := s.plan(i)
	o := outcome{get: get, target: target}
	var req *http.Request
	if get {
		req = httptest.NewRequest(http.MethodGet,
			"/v1/similar/"+s.pool[s.queries[target]].name+"?k="+strconv.Itoa(similarK), nil)
	} else {
		o.name = "r" + strconv.FormatInt(i, 10)
		req = httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(s.body(o.name, target)))
	}
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, req)
	o.status = rec.Code
	if o.status != http.StatusOK {
		return o
	}
	if get {
		var resp serve.SimilarResponse
		if json.Unmarshal(rec.Body.Bytes(), &resp) == nil {
			o.hits = resp.Hits
		}
		return o
	}
	var res serve.Result
	if json.Unmarshal(rec.Body.Bytes(), &res) == nil && res.Job == o.name {
		o.got = verdict{res.Group, res.Score}
	}
	return o
}

// openLoop sends requests on a fixed schedule of s.rate per second for
// d, whether or not earlier ones were answered. Each latency is timed
// from the request's scheduled send time; lag is how late the generator
// sent each one.
func (s *server) openLoop(d time.Duration) (outs []outcome, lag []float64) {
	n := max(1, int(s.rate*d.Seconds()))
	outs = make([]outcome, n)
	lag = make([]float64, n)
	first := s.next.Add(int64(n)) - int64(n)
	interval := time.Duration(float64(time.Second) / s.rate)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag[k] = msSince(due)
		wg.Add(1)
		go func(k int, due time.Time) {
			defer wg.Done()
			o := s.do(first + int64(k))
			o.ms = msSince(due)
			outs[k] = o
		}(k, due)
	}
	wg.Wait()
	return outs, lag
}

// closedLoop keeps s.sz.clients requests outstanding until n requests
// are answered: each client sends the next request when its previous
// one is answered. A fixed count, not a fixed time, keeps the request
// sequence, and so the server's growing state, the same in every run.
func (s *server) closedLoop(n int) ([]outcome, time.Duration) {
	outs := make([]outcome, n)
	first := s.next.Add(int64(n)) - int64(n)
	var issued atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < s.sz.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := issued.Add(1) - 1; k < int64(n); k = issued.Add(1) - 1 {
				sent := time.Now()
				o := s.do(first + k)
				o.ms = msSince(sent)
				outs[k] = o
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// round is one open-loop window followed by one closed-loop window.
type round struct {
	open    []outcome
	lag     []float64
	closed  []outcome
	elapsed time.Duration // of the closed-loop window
}

// measure warms the server up, then alternates open- and closed-loop
// windows for rounds rounds. Each latency and throughput metric is the
// median of its per-round values, so a stall of the host moves one
// round, not the result.
func (s *server) measure(r *run, d time.Duration) {
	warm, _ := s.openLoop(time.Duration(warmShare * float64(d)))
	per := (1 - warmShare) * d.Seconds() / rounds
	openPart := time.Duration(openShare * per * float64(time.Second))
	closedN := max(1, int(s.capacity*(1-openShare)*per))
	debug.FreeOSMemory()
	u0 := readUsage()
	rs := make([]round, rounds)
	for i := range rs {
		rs[i].open, rs[i].lag = s.openLoop(openPart)
		rs[i].closed, rs[i].elapsed = s.closedLoop(closedN)
	}
	used := usage{}.plus(u0, readUsage())

	failures := map[string]int64{}
	s.check(warm, failures)
	r.attempted += int64(len(warm))
	var (
		p50s, tails, lags, tputs []float64 // per round
		posts, gets              []float64 // pooled open-loop latencies
		open, closed, openOK     int
		closedOK                 int
	)
	for _, rd := range rs {
		s.check(rd.open, failures)
		s.check(rd.closed, failures)
		all := make([]float64, len(rd.open))
		for i, o := range rd.open {
			all[i] = o.ms
			if o.get {
				gets = append(gets, o.ms)
			} else {
				posts = append(posts, o.ms)
			}
		}
		ok := 0
		for _, o := range rd.closed {
			if !math.IsInf(o.ms, 1) {
				ok++
			}
		}
		p50s = append(p50s, pct(all, 0.5))
		tails = append(tails, tail(all))
		lags = append(lags, pct(rd.lag, 0.99))
		tputs = append(tputs, float64(ok)/rd.elapsed.Seconds())
		open, openOK = open+len(all), openOK+countFinite(all)
		closed, closedOK = closed+len(rd.closed), closedOK+ok
	}
	fmt.Fprintf(os.Stderr, "rounds: latency p50 %.4g, tail %.4g, throughput %.5g\n", p50s, tails, tputs)
	r.attempted += int64(open + closed)
	r.recordUsage(used, open+closed)
	r.set("latency_p50_ms", pct(p50s, 0.5), open)
	r.set("latency_tail_ms", pct(tails, 0.5), open)
	r.set("throughput_per_s", pct(tputs, 0.5), closed)
	r.set("bench.gen_lag_p99_ms", pct(lags, 0.5), open)
	r.set("serve.classify_p50_ms", pct(posts, 0.5), len(posts))
	r.set("serve.classify_p99_ms", pct(posts, 0.99), len(posts))
	r.set("serve.similar_p50_ms", pct(gets, 0.5), len(gets))
	r.set("serve.similar_p99_ms", pct(gets, 0.99), len(gets))
	r.set("bench.open.sent", float64(open), open)
	r.set("bench.open.ok", float64(openOK), open)
	r.set("bench.open.failed", float64(open-openOK), open)
	r.set("bench.closed.sent", float64(closed), closed)
	r.set("bench.closed.ok", float64(closedOK), closed)
	r.set("bench.closed.failed", float64(closed-closedOK), closed)

	reasons := make([]string, 0, len(failures))
	for reason := range failures {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		r.fail(failures[reason], "%d requests: %s", failures[reason], reason)
	}

	if s.ix != nil {
		recall := s.recall()
		r.set("wl.ann_recall_at_10", recall, len(s.queries))
		if recall < minRecall {
			r.fail(r.attempted, "ANN recall@10 %.4f below %.2f", recall, minRecall)
		}
	}
}

// check verifies each outcome against the offline answer: a POST must
// be answered 200 with the group and score Model.Classify gives the same
// job, a GET with exactly ANNIndex.QueryJob's hits. A refused (429, 503,
// 504) or otherwise failed request misses every latency limit, so its
// latency becomes +Inf. failures tallies the reasons.
func (s *server) check(outs []outcome, failures map[string]int64) {
	for i := range outs {
		o := &outs[i]
		reason := ""
		switch {
		case o.status != http.StatusOK:
			reason = fmt.Sprintf("status %d", o.status)
		case o.get && !sameHits(o.hits, s.expectHits(o.target)):
			reason = "similar hits differ from QueryJob"
		case !o.get && o.got != s.expectClass(o.target):
			reason = "classification differs from Model.Classify"
		}
		if reason != "" {
			failures[reason]++
			o.ms = math.Inf(1)
		}
	}
}

func (s *server) expectClass(j int) verdict {
	if s.wantClass == nil {
		s.wantClass = map[int]verdict{}
	}
	v, ok := s.wantClass[j]
	if !ok {
		mg, score, err := s.model.Classify(s.pool[j].graph)
		if err != nil {
			v = verdict{group: "error: " + err.Error()}
		} else {
			v = verdict{mg.Name, score}
		}
		s.wantClass[j] = v
	}
	return v
}

func (s *server) expectHits(q int) []wl.Hit {
	if s.wantHits == nil {
		s.wantHits = map[int][]wl.Hit{}
	}
	hits, ok := s.wantHits[q]
	if !ok {
		var err error
		if hits, err = s.ix.QueryJob(s.pool[s.queries[q]].name, similarK); err != nil {
			// No response can match a query the index cannot answer.
			hits = []wl.Hit{{JobID: "\x00" + err.Error()}}
		}
		s.wantHits[q] = hits
	}
	return hits
}

func sameHits(got []serve.SimilarHit, want []wl.Hit) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Job != want[i].JobID || got[i].Similarity != want[i].Similarity {
			return false
		}
	}
	return true
}

// recall is the mean tie-aware recall@10 of QueryJob over the query ids
// against exact cosine over the same hashed vectors: a returned job
// counts when its exact similarity reaches the tenth-best one, since the
// held-out stream's many duplicate shapes make exact top-10 sets ties.
func (s *server) recall() float64 {
	sparse := s.ix.SparseVectors() // aligned with pool, as indexed
	compact := make([]wl.CompactVector, len(sparse))
	self := make([]float64, len(sparse))
	for i, v := range sparse {
		compact[i] = wl.CompactFromVector(v)
		self[i] = compact[i].SelfDot()
	}
	cosine := func(a, b int) float64 {
		switch {
		case self[a] == 0 && self[b] == 0:
			return 1
		case self[a] == 0 || self[b] == 0:
			return 0
		}
		dot := compact[a].Dot(compact[b])
		if dot*dot >= self[a]*self[b] {
			return 1
		}
		return dot / (math.Sqrt(self[a]) * math.Sqrt(self[b]))
	}
	index := make(map[string]int, len(s.pool))
	for i, h := range s.pool {
		index[h.name] = i
	}
	for q := range s.queries {
		s.expectHits(q) // memoized before the workers share the map
	}
	scores := make([]float64, len(s.queries))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			top := make([]float64, 0, similarK) // best exact similarities, descending
			for q := w; q < len(s.queries); q += workers {
				qi := s.queries[q]
				top = top[:0]
				for j := range compact {
					if j != qi {
						top = keepTop(top, cosine(qi, j))
					}
				}
				if len(top) == 0 {
					scores[q] = 1
					continue
				}
				hit := 0
				for _, h := range s.wantHits[q] {
					if j, ok := index[h.JobID]; ok && cosine(qi, j) >= top[len(top)-1] {
						hit++
					}
				}
				scores[q] = float64(hit) / float64(len(top))
			}
		}(w)
	}
	wg.Wait()
	var sum float64
	for _, v := range scores {
		sum += v
	}
	return sum / float64(len(scores))
}

// keepTop inserts v into top, the similarK largest values so far in
// descending order.
func keepTop(top []float64, v float64) []float64 {
	switch {
	case len(top) < similarK:
		top = append(top, v)
	case v > top[len(top)-1]:
		top[len(top)-1] = v
	default:
		return top
	}
	for i := len(top) - 1; i > 0 && top[i] > top[i-1]; i-- {
		top[i], top[i-1] = top[i-1], top[i]
	}
	return top
}

// jobRequest mirrors POST /v1/jobs's body.
type jobRequest struct {
	Name  string             `json:"name"`
	Tasks []trace.TaskRecord `json:"tasks"`
}

// traceOp replays sz.replayJobs held-out jobs one at a time through the
// steps the server takes for POST /v1/jobs, each step a span, journaling
// to a scratch journal with an fsync every syncEvery jobs as the
// batcher's group commit does; serve-mixed adds one QueryJob per query
// id.
func (s *server) traceOp(r *run, t *tracer) error {
	n := min(s.sz.replayJobs, len(s.pool))
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = s.body("replay_"+strconv.Itoa(i), i)
	}
	path := filepath.Join(s.dir, "replay.journal")
	if err := s.replay(t, path, bodies); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}

	r.set("serve.json_decode_us_p50", pct(usOf(t.calls("serve.json_decode")), 0.5), n)
	r.set("dag.build_us_p50", pct(usOf(t.calls("dag.build")), 0.5), n)
	r.set("wl.embed_us_p50", pct(usOf(t.calls("wl.embed")), 0.5), n)
	classify := usOf(t.calls("core.classify"))
	r.set("core.classify_us_p50", pct(classify, 0.5), n)
	r.set("core.classify_us_p99", pct(classify, 0.99), n)
	r.set("serve.journal_append_us_p50", pct(usOf(t.calls("serve.journal_append")), 0.5), n)
	syncs := msOf(t.calls("serve.journal_sync"))
	r.set("serve.journal_sync_ms_p50", pct(syncs, 0.5), len(syncs))
	r.set("serve.journal_sync_ms_p99", pct(syncs, 0.99), len(syncs))
	r.set("serve.journal_bytes_per_job", float64(st.Size())/float64(n), n)
	if s.ix != nil {
		queries := usOf(t.calls("wl.ann_query"))
		r.set("wl.ann_query_us_p50", pct(queries, 0.5), len(queries))
		r.set("wl.ann_query_us_p99", pct(queries, 0.99), len(queries))
		sparse := s.ix.SparseVectors()
		var cands, returned int
		for q, qi := range s.queries {
			// Candidates proposes the query job itself, which QueryJob
			// excludes.
			cands += len(s.ix.Candidates(sparse[qi])) - 1
			returned += len(s.expectHits(q))
		}
		r.set("wl.ann_candidates_mean", float64(cands)/float64(len(s.queries)), len(s.queries))
		r.set("wl.ann_useful_ratio", float64(returned)/float64(cands), len(s.queries))
	}
	// No measured op runs these steps alone, so what the layer spans
	// miss is measured inside the replay's own op spans.
	ops, layers := t.perOp("")
	var opTime, layerTime time.Duration
	for i := range ops {
		opTime += ops[i]
		layerTime += layers[i]
	}
	r.set("bench.unattributed_pct", 100*float64(opTime-layerTime)/float64(opTime), len(ops))
	return nil
}

// replay runs the bodies through the server's POST steps, then the
// query ids through QueryJob, each job or query an op span and each step
// a layer span under it.
func (s *server) replay(t *tracer, journal string, bodies [][]byte) error {
	j, _, _, err := serve.OpenJournal(journal)
	if err != nil {
		return err
	}
	defer j.Close()
	frozen := s.model.Dict.Freeze()
	for i, body := range bodies {
		op := t.op()
		var (
			req jobRequest
			g   *dag.Graph
			mg  core.ModelGroup
			sc  float64
		)
		err := t.layer(op, "serve.json_decode", func() error { return json.Unmarshal(body, &req) })
		if err == nil {
			err = t.layer(op, "dag.build", func() (err error) {
				g, err = assemble(req.Name, req.Tasks)
				return err
			})
		}
		if err == nil {
			err = t.layer(op, "wl.embed", func() error {
				_, err := frozen.Embed(g, s.model.WL)
				return err
			})
		}
		if err == nil {
			err = t.layer(op, "core.classify", func() (err error) {
				mg, sc, err = s.model.Classify(g)
				return err
			})
		}
		if err == nil {
			err = t.layer(op, "serve.journal_append", func() error {
				for k := range req.Tasks {
					row := req.Tasks[k]
					row.JobName = req.Name
					if err := j.Append(serve.Record{Op: serve.OpRow, Seq: j.NextSeq(), Job: req.Name, Row: &row}); err != nil {
						return err
					}
				}
				if err := j.Append(serve.Record{Op: serve.OpComplete, Seq: j.NextSeq(), Job: req.Name}); err != nil {
					return err
				}
				return j.Append(serve.Record{Op: serve.OpResult, Seq: j.NextSeq(), Job: req.Name, Group: mg.Name, Score: sc})
			})
		}
		if err == nil && ((i+1)%syncEvery == 0 || i == len(bodies)-1) {
			err = t.layer(op, "serve.journal_sync", j.Sync)
		}
		op.End()
		if err != nil {
			return fmt.Errorf("bench: replaying job %d: %w", i, err)
		}
	}
	for _, qi := range s.queries {
		op := t.op()
		err := t.layer(op, "wl.ann_query", func() error {
			_, err := s.ix.QueryJob(s.pool[qi].name, similarK)
			return err
		})
		op.End()
		if err != nil {
			return err
		}
	}
	return j.Close()
}
