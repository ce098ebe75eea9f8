package trace

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// withShardTarget shrinks the parallel decoder's shard size so small
// test inputs split into many shards. Trace tests never run in
// parallel, so mutating the package global is safe.
func withShardTarget(t *testing.T, n int) {
	t.Helper()
	old := shardTargetBytes
	shardTargetBytes = n
	t.Cleanup(func() { shardTargetBytes = old })
}

// syntheticTasks renders n well-formed batch_task rows spanning
// n/tasksPerJob jobs.
func syntheticTasks(n, tasksPerJob int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		job := i / tasksPerJob
		fmt.Fprintf(&b, "M%d,%d,j_%d,1,Terminated,%d,%d,%d,0.5\n",
			i%tasksPerJob+1, i%7+1, job, 100+i, 200+i, 50+i%10)
	}
	return b.String()
}

// readWorkers reads in with the given options, collecting the record
// stream.
func readWorkers(t *testing.T, in string, opt ReadOptions) ([]TaskRecord, ReadStats, error) {
	t.Helper()
	var recs []TaskRecord
	stats, err := ReadTasksOpts(strings.NewReader(in), opt, func(r TaskRecord) error {
		recs = append(recs, r)
		return nil
	})
	return recs, stats, err
}

// statsEqual compares every ReadStats field except PartialCause (an
// error value compared by message).
func statsEqual(t *testing.T, name string, a, b ReadStats) {
	t.Helper()
	fmtCause := func(e error) string {
		if e == nil {
			return ""
		}
		return e.Error()
	}
	ac, bc := a.PartialCause, b.PartialCause
	a.PartialCause, b.PartialCause = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: stats differ:\n  seq: %+v\n  par: %+v", name, a, b)
	}
	if fmtCause(ac) != fmtCause(bc) {
		t.Errorf("%s: partial cause differs: %q vs %q", name, fmtCause(ac), fmtCause(bc))
	}
}

func TestParallelStrictEquivalence(t *testing.T) {
	withShardTarget(t, 256)
	in := syntheticTasks(2000, 4)
	seqRecs, seqStats, seqErr := readWorkers(t, in, ReadOptions{Workers: 1})
	if seqErr != nil {
		t.Fatal(seqErr)
	}
	for _, w := range []int{2, 3, 8} {
		parRecs, parStats, parErr := readWorkers(t, in, ReadOptions{Workers: w})
		if parErr != nil {
			t.Fatalf("workers=%d: %v", w, parErr)
		}
		if !reflect.DeepEqual(seqRecs, parRecs) {
			t.Fatalf("workers=%d: record streams differ (%d vs %d rows)", w, len(seqRecs), len(parRecs))
		}
		statsEqual(t, fmt.Sprintf("workers=%d", w), seqStats, parStats)
	}
}

func TestParallelLenientEquivalence(t *testing.T) {
	withShardTarget(t, 200)
	// Every rejection class plus zeroed non-finite fields, interleaved
	// with filler so bad rows land in different shards.
	var b strings.Builder
	for i := 0; i < 40; i++ {
		b.WriteString(syntheticTasks(10, 2))
		switch i % 4 {
		case 0:
			b.WriteString("short,row\n") // column_count
		case 1:
			b.WriteString("M2,xx,j_bad,1,Terminated,1,2,1,1\n") // numeric_parse
		case 2:
			b.WriteString("M3,1,,1,Terminated,1,2,1,1\n") // validation
		case 3:
			b.WriteString("M4,1,j_nan,1,Terminated,1,2,NaN,Inf\n") // zeroed fields
		}
	}
	in := b.String()

	var seqQ, parQ bytes.Buffer
	seqRecs, seqStats, err := readWorkers(t, in, ReadOptions{Mode: Lenient, Workers: 1, Quarantine: &seqQ})
	if err != nil {
		t.Fatal(err)
	}
	parRecs, parStats, err := readWorkers(t, in, ReadOptions{Mode: Lenient, Workers: 8, Quarantine: &parQ})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRecs, parRecs) {
		t.Fatalf("record streams differ (%d vs %d rows)", len(seqRecs), len(parRecs))
	}
	statsEqual(t, "lenient", seqStats, parStats)
	if !bytes.Equal(seqQ.Bytes(), parQ.Bytes()) {
		t.Fatalf("quarantine sidecars differ:\nseq:\n%s\npar:\n%s", seqQ.String(), parQ.String())
	}
}

func TestParallelStrictFirstErrorIdentical(t *testing.T) {
	withShardTarget(t, 128)
	in := syntheticTasks(300, 3) + "broken,row\n" + syntheticTasks(300, 3)
	seqRecs, seqStats, seqErr := readWorkers(t, in, ReadOptions{Workers: 1})
	parRecs, parStats, parErr := readWorkers(t, in, ReadOptions{Workers: 8})
	if seqErr == nil || parErr == nil {
		t.Fatalf("expected both reads to fail: seq=%v par=%v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("error values differ:\nseq: %v\npar: %v", seqErr, parErr)
	}
	if !reflect.DeepEqual(seqRecs, parRecs) {
		t.Fatalf("pre-error record streams differ (%d vs %d rows)", len(seqRecs), len(parRecs))
	}
	statsEqual(t, "strict-error", seqStats, parStats)
}

func TestParallelBudgetAbortIdentical(t *testing.T) {
	withShardTarget(t, 128)
	in := syntheticTasks(100, 2) + strings.Repeat("bad,row\n", 10) + syntheticTasks(100, 2)
	opt := ReadOptions{Mode: Lenient, MaxBadRows: 3}
	optSeq, optPar := opt, opt
	optSeq.Workers, optPar.Workers = 1, 8
	_, seqStats, seqErr := readWorkers(t, in, optSeq)
	_, parStats, parErr := readWorkers(t, in, optPar)
	if seqErr == nil || parErr == nil {
		t.Fatalf("expected budget aborts: seq=%v par=%v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("budget errors differ:\nseq: %v\npar: %v", seqErr, parErr)
	}
	statsEqual(t, "budget", seqStats, parStats)
}

func TestParallelQuotedFieldsAcrossShards(t *testing.T) {
	withShardTarget(t, 64)
	// Quoted task names with embedded newlines and escaped quotes force
	// records to span would-be shard boundaries; the quote-parity
	// splitter must not cut inside them.
	var b strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "\"M\n%d\",1,j_%d,1,Terminated,%d,%d,1,1\n", i, i/2, 100+i, 200+i)
		fmt.Fprintf(&b, "\"R\"\"%d\",1,j_%d,1,Terminated,%d,%d,1,1\n", i, i/2, 100+i, 200+i)
	}
	in := b.String()
	seqRecs, seqStats, err := readWorkers(t, in, ReadOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parRecs, parStats, err := readWorkers(t, in, ReadOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRecs, parRecs) {
		t.Fatalf("record streams differ (%d vs %d rows)", len(seqRecs), len(parRecs))
	}
	statsEqual(t, "quoted", seqStats, parStats)
}

func TestParallelTruncatedGzip(t *testing.T) {
	withShardTarget(t, 256)
	var plain bytes.Buffer
	plain.WriteString(syntheticTasks(1500, 3))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	cut := gz.Bytes()[:gz.Len()*3/4]

	read := func(workers int, mode Mode) ([]TaskRecord, ReadStats, error) {
		zr, err := gzip.NewReader(bytes.NewReader(cut))
		if err != nil {
			t.Fatal(err)
		}
		var recs []TaskRecord
		stats, rerr := ReadTasksOpts(zr, ReadOptions{Mode: mode, Workers: workers}, func(r TaskRecord) error {
			recs = append(recs, r)
			return nil
		})
		return recs, stats, rerr
	}

	// Lenient: both worker counts keep the same partial prefix.
	seqRecs, seqStats, err := read(1, Lenient)
	if err != nil {
		t.Fatal(err)
	}
	if !seqStats.Partial {
		t.Fatal("sequential lenient read of truncated gzip not marked partial")
	}
	parRecs, parStats, err := read(8, Lenient)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRecs, parRecs) {
		t.Fatalf("partial record streams differ (%d vs %d rows)", len(seqRecs), len(parRecs))
	}
	statsEqual(t, "truncated-lenient", seqStats, parStats)

	// Strict: identical failure, including the reported byte offset.
	_, _, seqErr := read(1, Strict)
	_, _, parErr := read(8, Strict)
	if seqErr == nil || parErr == nil {
		t.Fatalf("expected strict failures: seq=%v par=%v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("strict truncation errors differ:\nseq: %v\npar: %v", seqErr, parErr)
	}
}

func TestGroupTasksNEquivalence(t *testing.T) {
	var records []TaskRecord
	if err := ReadTasks(strings.NewReader(syntheticTasks(3000, 5)), func(r TaskRecord) error {
		records = append(records, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := GroupTasksN(records, 1)
	for _, w := range []int{0, 2, 4, 9} {
		got := GroupTasksN(records, w)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: grouped jobs differ", w)
		}
	}
}

func TestForEachJobMatchesGroupTasks(t *testing.T) {
	in := syntheticTasks(600, 4)
	jobs, _, err := ReadJobsOpts(strings.NewReader(in), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]Job, len(jobs))
	for _, j := range jobs {
		byName[j.Name] = j
	}

	var streamed []Job
	stats, err := ForEachJob(strings.NewReader(in), ReadOptions{}, func(j Job) error {
		streamed = append(streamed, j)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReopenedJobs != 0 {
		t.Fatalf("reopened %d jobs on a trace-order input", stats.ReopenedJobs)
	}
	if len(streamed) != len(jobs) {
		t.Fatalf("streamed %d jobs, grouped %d", len(streamed), len(jobs))
	}
	for _, j := range streamed {
		if !reflect.DeepEqual(byName[j.Name], j) {
			t.Fatalf("job %s differs between ForEachJob and GroupTasksN", j.Name)
		}
	}
}

func TestForEachJobWindowEvictionAndReopen(t *testing.T) {
	// 6 jobs interleaved so that job j_0's rows resurface after enough
	// distinct jobs have pushed it out of a 3-job window.
	in := "M1,1,j_0,1,Terminated,1,2,1,1\n" +
		"M1,1,j_1,1,Terminated,1,2,1,1\n" +
		"M1,1,j_2,1,Terminated,1,2,1,1\n" +
		"M1,1,j_3,1,Terminated,1,2,1,1\n" + // evicts j_0
		"M1,1,j_4,1,Terminated,1,2,1,1\n" + // evicts j_1
		"M2,1,j_0,1,Terminated,3,4,1,1\n" + // reopens j_0, evicts j_2
		"M1,1,j_5,1,Terminated,1,2,1,1\n"
	var emitted []string
	counts := make(map[string]int)
	stats, err := forEachJobWindow(strings.NewReader(in), ReadOptions{}, 3, func(j Job) error {
		emitted = append(emitted, j.Name)
		counts[j.Name] += len(j.Tasks)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReopenedJobs != 1 {
		t.Fatalf("ReopenedJobs = %d, want 1 (emissions: %v)", stats.ReopenedJobs, emitted)
	}
	// Every task row must be delivered exactly once across emissions.
	want := map[string]int{"j_0": 2, "j_1": 1, "j_2": 1, "j_3": 1, "j_4": 1, "j_5": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("per-job task counts = %v, want %v", counts, want)
	}
}

func TestReadJobsOptsParallelDeterminism(t *testing.T) {
	withShardTarget(t, 512)
	in := syntheticTasks(2000, 3)
	want, _, err := ReadJobsOpts(strings.NewReader(in), ReadOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadJobsOpts(strings.NewReader(in), ReadOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("ReadJobsOpts output differs between Workers=1 and Workers=8")
	}
}
