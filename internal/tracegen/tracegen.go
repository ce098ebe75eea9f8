// Package tracegen synthesizes Alibaba-v2018-style batch workload
// traces. It stands in for the proprietary production trace the paper
// analyzes: every downstream stage consumes only the two-table CSV
// schema and the task-name dependency encoding, both of which this
// generator reproduces exactly, with the paper's published aggregate
// statistics as generation targets:
//
//   - ~50% of batch jobs carry DAG dependencies (§II-B),
//   - among DAG jobs: 58% straight chains, 37% inverted triangles,
//     diamonds and composite shapes in the tail (§V-B),
//   - job sizes 2–31 tasks with 17 distinct size groups whose counts
//     decay as size grows (§IV-B, §V-A),
//   - diurnal submission pattern over an 8-day window (§II-B),
//   - a mix of Terminated / Running / Failed outcomes so the sampling
//     stage has integrity filtering to do (§IV-B).
package tracegen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"jobgraph/internal/taskname"
	"jobgraph/internal/trace"
)

// Config controls generation. The zero value is not valid; use
// DefaultConfig and override.
type Config struct {
	NumJobs int
	Seed    int64

	// DAGFraction is the share of jobs with dependency structure; the
	// remainder are flat jobs with opaque task names.
	DAGFraction float64

	// ShapeWeights is the mixture over generated DAG topologies,
	// indexed by shapeKind String() names: "chain", "inverted-triangle",
	// "diamond", "hourglass", "trapezium", "hybrid". Weights are
	// normalized internally.
	ShapeWeights map[string]float64

	// Sizes is the set of distinct DAG job sizes; SizeDecay ∈ (0,1] is
	// the geometric decay of the weight from one size to the next
	// (smaller = steeper decay toward small jobs). SizeFloor ≥ 0 is a
	// uniform weight added to every size so the large-job tail never
	// vanishes — the real trace keeps a thin but persistent population
	// of big jobs (the paper's sample covers sizes up to 31).
	Sizes     []int
	SizeDecay float64
	SizeFloor float64

	// TraceDuration is the covered window in seconds (8 days for the
	// real trace). Arrivals follow a diurnal sinusoid with relative
	// amplitude DiurnalAmplitude in [0,1).
	TraceDuration    int64
	DiurnalAmplitude float64

	// Outcome mix; must sum to <= 1, remainder becomes Failed.
	TerminatedFrac float64
	RunningFrac    float64
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig(numJobs int, seed int64) Config {
	return Config{
		NumJobs:     numJobs,
		Seed:        seed,
		DAGFraction: 0.5,
		ShapeWeights: map[string]float64{
			"chain":             0.58,
			"inverted-triangle": 0.37,
			"diamond":           0.02,
			"hourglass":         0.01,
			"trapezium":         0.01,
			"hybrid":            0.01,
		},
		Sizes:            []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 18, 20, 24, 28, 31},
		SizeDecay:        0.45,
		SizeFloor:        0.012,
		TraceDuration:    8 * 24 * 3600,
		DiurnalAmplitude: 0.6,
		TerminatedFrac:   0.88,
		RunningFrac:      0.05,
	}
}

func (c Config) validate() error {
	if c.NumJobs < 0 {
		return fmt.Errorf("tracegen: negative NumJobs %d", c.NumJobs)
	}
	if c.DAGFraction < 0 || c.DAGFraction > 1 {
		return fmt.Errorf("tracegen: DAGFraction %g outside [0,1]", c.DAGFraction)
	}
	if len(c.Sizes) == 0 {
		return fmt.Errorf("tracegen: empty size set")
	}
	for _, s := range c.Sizes {
		if s < 2 {
			return fmt.Errorf("tracegen: DAG size %d < 2", s)
		}
	}
	if c.SizeDecay <= 0 || c.SizeDecay > 1 {
		return fmt.Errorf("tracegen: SizeDecay %g outside (0,1]", c.SizeDecay)
	}
	if c.SizeFloor < 0 {
		return fmt.Errorf("tracegen: SizeFloor %g < 0", c.SizeFloor)
	}
	if c.TraceDuration <= 0 {
		return fmt.Errorf("tracegen: TraceDuration %d <= 0", c.TraceDuration)
	}
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 {
		return fmt.Errorf("tracegen: DiurnalAmplitude %g outside [0,1)", c.DiurnalAmplitude)
	}
	if c.TerminatedFrac < 0 || c.RunningFrac < 0 || c.TerminatedFrac+c.RunningFrac > 1 {
		return fmt.Errorf("tracegen: outcome fractions invalid")
	}
	if len(c.ShapeWeights) == 0 {
		return fmt.Errorf("tracegen: empty shape mixture")
	}
	total := 0.0
	for name, w := range c.ShapeWeights {
		if w < 0 {
			return fmt.Errorf("tracegen: negative weight for shape %q", name)
		}
		if !validShapeName(name) {
			return fmt.Errorf("tracegen: unknown shape %q", name)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("tracegen: shape mixture sums to zero")
	}
	return nil
}

func validShapeName(name string) bool {
	for s := shapeKind(0); s < numShapes; s++ {
		if s.String() == name {
			return true
		}
	}
	return false
}

// Generate produces the batch_task table for a synthetic trace. Records
// are emitted job by job; task rows within a job are ordered by task id.
func Generate(cfg Config) ([]trace.TaskRecord, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	shapeNames, shapeCDF := mixtureCDF(cfg.ShapeWeights)
	// Shapes are sampled first so the mixture holds exactly; each shape
	// then draws its size from the geometrically-decaying weights
	// restricted to its feasible sizes (diamonds need ≥4 tasks, etc.).
	// This mirrors the real trace, where the smallest jobs are chains.
	sizeCDFs, err := perShapeSizeCDFs(cfg)
	if err != nil {
		return nil, err
	}

	records := make([]trace.TaskRecord, 0, cfg.NumJobs*3)
	for j := 0; j < cfg.NumJobs; j++ {
		jobName := fmt.Sprintf("j_%07d", j+1)
		arrival := diurnalArrival(rng, cfg.TraceDuration, cfg.DiurnalAmplitude)
		status := sampleStatus(rng, cfg)
		if rng.Float64() < cfg.DAGFraction {
			shape := shapeByName(shapeNames[sampleCDF(rng, shapeCDF)])
			sc := sizeCDFs[shape]
			size := sc.sizes[sampleCDF(rng, sc.cdf)]
			bp := plan(shape, size, rng)
			records = append(records, emitDAGJob(rng, jobName, bp, arrival, status, cfg)...)
		} else {
			records = append(records, emitFlatJob(rng, jobName, arrival, status)...)
		}
	}
	return records, nil
}

// sizeCDF pairs a feasible size list with its cumulative weights.
type sizeCDF struct {
	sizes []int
	cdf   []float64
}

// perShapeSizeCDFs restricts the configured size set to each shape's
// feasible sizes, keeping the geometric rank weights of the full set.
func perShapeSizeCDFs(cfg Config) (map[shapeKind]sizeCDF, error) {
	out := make(map[shapeKind]sizeCDF, int(numShapes))
	for s := shapeKind(0); s < numShapes; s++ {
		var sizes []int
		var weights []float64
		w := 1.0
		for _, size := range cfg.Sizes {
			if feasible(s, size) {
				sizes = append(sizes, size)
				weights = append(weights, w+cfg.SizeFloor)
			}
			w *= cfg.SizeDecay
		}
		if _, used := cfg.ShapeWeights[s.String()]; used && len(sizes) == 0 {
			return nil, fmt.Errorf("tracegen: no feasible sizes for shape %s", s)
		}
		if len(sizes) == 0 {
			continue
		}
		total := 0.0
		for _, v := range weights {
			total += v
		}
		cdf := make([]float64, len(weights))
		acc := 0.0
		for i, v := range weights {
			acc += v / total
			cdf[i] = acc
		}
		cdf[len(cdf)-1] = 1
		out[s] = sizeCDF{sizes: sizes, cdf: cdf}
	}
	return out, nil
}

// GenerateJobs is Generate followed by per-job grouping.
func GenerateJobs(cfg Config) ([]trace.Job, error) {
	recs, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	return trace.GroupTasksN(recs, 1), nil
}

func shapeByName(name string) shapeKind {
	for s := shapeKind(0); s < numShapes; s++ {
		if s.String() == name {
			return s
		}
	}
	return shapeChain
}

// redundantNameProb is the chance that a multi-input aggregate task is
// named with its full ancestor closure instead of its direct parents —
// the trace's over-specified style the paper's own example shows
// (R5_4_3_2_1 lists all four upstream tasks although 1→2 and 3→4 make
// two of those edges transitively implied).
const redundantNameProb = 0.5

// emitDAGJob serializes a blueprint into trace task rows with
// dependency-encoded names and plausible runtime attributes.
func emitDAGJob(rng *rand.Rand, jobName string, bp *blueprint, arrival int64, jobStatus trace.Status, cfg Config) []trace.TaskRecord {
	ancestors := ancestorClosure(bp)
	// Per-task durations: log-normal-ish, Map stages longer tails.
	out := make([]trace.TaskRecord, 0, bp.n)
	finish := make([]int64, bp.n+1) // finish[i] = end time of task i
	for i := 0; i < bp.n; i++ {
		id := i + 1
		nameDeps := bp.deps[i]
		if len(nameDeps) >= 2 && len(ancestors[i]) > len(nameDeps) && rng.Float64() < redundantNameProb {
			nameDeps = ancestors[i]
		}
		start := arrival
		for _, d := range bp.deps[i] {
			if finish[d] > start {
				start = finish[d]
			}
		}
		dur := taskDuration(rng, bp.types[i])
		end := start + dur
		finish[id] = end

		status := jobStatus
		if jobStatus == trace.StatusRunning && i == bp.n-1 {
			// Running jobs have an unfinished last task.
			end = 0
		}
		instances := instanceCount(rng, bp.types[i])
		out = append(out, trace.TaskRecord{
			TaskName:    formatName(bp.types[i], id, nameDeps),
			InstanceNum: instances,
			JobName:     jobName,
			TaskType:    "1",
			Status:      status,
			StartTime:   start,
			EndTime:     end,
			PlanCPU:     float64(50 * (1 + rng.Intn(4))), // 0.5–2 cores
			PlanMem:     math.Round(rng.Float64()*100) / 100,
		})
	}
	return out
}

// emitFlatJob produces 1–3 tasks with non-DAG names.
func emitFlatJob(rng *rand.Rand, jobName string, arrival int64, status trace.Status) []trace.TaskRecord {
	n := 1 + rng.Intn(3)
	out := make([]trace.TaskRecord, 0, n)
	for i := 0; i < n; i++ {
		dur := taskDuration(rng, taskname.TypeOther)
		end := arrival + dur
		if status == trace.StatusRunning {
			end = 0
		}
		out = append(out, trace.TaskRecord{
			TaskName:    fmt.Sprintf("task_%s", randToken(rng, 10)),
			InstanceNum: 1 + rng.Intn(16),
			JobName:     jobName,
			TaskType:    "2",
			Status:      status,
			StartTime:   arrival,
			EndTime:     end,
			PlanCPU:     float64(50 * (1 + rng.Intn(2))),
			PlanMem:     math.Round(rng.Float64()*100) / 100,
		})
	}
	return out
}

// ancestorClosure computes, per task index, the full ancestor id list
// in descending order (the trace's R5_4_3_2_1 style). Task ids equal
// index+1 and parents always precede children in the blueprint.
func ancestorClosure(bp *blueprint) [][]int {
	anc := make([]map[int]bool, bp.n)
	for i := 0; i < bp.n; i++ {
		set := make(map[int]bool)
		for _, p := range bp.deps[i] {
			set[p] = true
			for a := range anc[p-1] {
				set[a] = true
			}
		}
		anc[i] = set
	}
	out := make([][]int, bp.n)
	for i, set := range anc {
		ids := make([]int, 0, len(set))
		for a := range set {
			ids = append(ids, a)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(ids)))
		out[i] = ids
	}
	return out
}

// formatName renders the dependency-encoded task name.
func formatName(t taskname.Type, id int, deps []int) string {
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "%d", id)
	for _, d := range deps {
		fmt.Fprintf(&b, "_%d", d)
	}
	return b.String()
}

// taskDuration samples a task run time in seconds: log-normal body with
// type-dependent scale, clamped to [10s, 4h].
func taskDuration(rng *rand.Rand, t taskname.Type) int64 {
	// Flat (TypeOther) tasks run longer on average: the non-DAG half of
	// the workload is fewer, chunkier tasks, calibrated so DAG jobs end
	// up consuming 70–80% of batch resources as §II-B reports.
	scale := 150.0
	switch t {
	case taskname.TypeMap:
		scale = 90
	case taskname.TypeJoin:
		scale = 120
	case taskname.TypeReduce:
		scale = 70
	}
	d := scale * math.Exp(rng.NormFloat64()*0.8)
	if d < 10 {
		d = 10
	}
	if d > 4*3600 {
		d = 4 * 3600
	}
	return int64(d)
}

// instanceCount samples instance parallelism: Map stages fan out wide,
// Reduce stages stay narrow — mirroring the trace's instance skew.
func instanceCount(rng *rand.Rand, t taskname.Type) int {
	switch t {
	case taskname.TypeMap:
		return 1 + rng.Intn(50)
	case taskname.TypeJoin:
		return 1 + rng.Intn(20)
	default:
		return 1 + rng.Intn(10)
	}
}

// sampleStatus draws the job outcome.
func sampleStatus(rng *rand.Rand, cfg Config) trace.Status {
	u := rng.Float64()
	switch {
	case u < cfg.TerminatedFrac:
		return trace.StatusTerminated
	case u < cfg.TerminatedFrac+cfg.RunningFrac:
		return trace.StatusRunning
	default:
		return trace.StatusFailed
	}
}

// diurnalArrival samples a submission time whose intensity follows
// 1 + A·sin(2πt/day) via rejection sampling.
func diurnalArrival(rng *rand.Rand, window int64, amplitude float64) int64 {
	for {
		t := rng.Int63n(window)
		phase := 2 * math.Pi * float64(t%86400) / 86400
		accept := (1 + amplitude*math.Sin(phase)) / (1 + amplitude)
		if rng.Float64() < accept {
			return t
		}
	}
}

// mixtureCDF normalizes a name→weight map into parallel name/CDF slices
// with deterministic (sorted) order.
func mixtureCDF(weights map[string]float64) ([]string, []float64) {
	names := make([]string, 0, len(weights))
	for s := shapeKind(0); s < numShapes; s++ {
		if _, ok := weights[s.String()]; ok {
			names = append(names, s.String())
		}
	}
	total := 0.0
	for _, n := range names {
		total += weights[n]
	}
	cdf := make([]float64, len(names))
	acc := 0.0
	for i, n := range names {
		acc += weights[n] / total
		cdf[i] = acc
	}
	if len(cdf) > 0 {
		cdf[len(cdf)-1] = 1
	}
	return names, cdf
}

// sampleCDF returns the index of the first CDF entry >= u.
func sampleCDF(rng *rand.Rand, cdf []float64) int {
	u := rng.Float64()
	for i, c := range cdf {
		if u <= c {
			return i
		}
	}
	return len(cdf) - 1
}

const tokenAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

func randToken(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = tokenAlphabet[rng.Intn(len(tokenAlphabet))]
	}
	return string(b)
}
