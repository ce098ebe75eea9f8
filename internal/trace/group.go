package trace

import (
	"container/list"
	"io"
	"sort"

	"jobgraph/internal/obs"
	"jobgraph/internal/par"
)

// GroupTasksN collects task rows into per-job bundles across `workers`
// goroutines (<=0 uses all CPUs). Jobs are returned sorted by name; each
// job's tasks are sorted by task name for deterministic downstream
// processing. The record slice is cut into contiguous shards, each
// worker builds a per-shard job map, and the maps are merged in shard
// order so every job's task list preserves exact input order before the
// final per-job sort. The output is identical at every worker count.
func GroupTasksN(records []TaskRecord, workers int) []Job {
	workers = min(resolveWorkers(workers), max(len(records), 1))
	shards := make([]map[string][]TaskRecord, workers)
	par.For(workers, workers, func(w int) error {
		m := make(map[string][]TaskRecord)
		for _, r := range records[len(records)*w/workers : len(records)*(w+1)/workers] {
			m[r.JobName] = append(m[r.JobName], r)
		}
		shards[w] = m
		return nil
	}, nil)
	byJob := shards[0]
	for _, m := range shards[1:] {
		for name, tasks := range m {
			byJob[name] = append(byJob[name], tasks...)
		}
	}
	jobs := make([]Job, 0, len(byJob))
	for name, tasks := range byJob {
		jobs = append(jobs, Job{Name: name, Tasks: tasks})
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Name < jobs[j].Name })
	// Sort each job's tasks, one contiguous run of jobs per worker: a
	// job's sort is too small to dispatch on its own.
	par.For(workers, workers, func(w int) error {
		for _, j := range jobs[len(jobs)*w/workers : len(jobs)*(w+1)/workers] {
			tasks := j.Tasks
			sort.Slice(tasks, func(a, b int) bool { return tasks[a].TaskName < tasks[b].TaskName })
		}
		return nil
	}, nil)
	return jobs
}

// ReadJobs streams batch_task rows from r and returns them grouped by
// job. It buffers the whole table: callers working with the full-scale
// trace should use ForEachJob, which emits each job as soon as its rows
// are complete; for the paper-scale samples this convenience is the
// right tool.
func ReadJobs(r io.Reader) ([]Job, error) {
	jobs, _, err := ReadJobsOpts(r, ReadOptions{})
	return jobs, err
}

// ReadJobsOpts is ReadJobs under explicit ReadOptions, returning the
// ingest-health stats alongside the grouped jobs. In Lenient mode a
// truncated table yields the jobs parsed before the cut with
// stats.Partial set (the last job may be incomplete — availability
// filtering downstream decides whether it is usable).
func ReadJobsOpts(r io.Reader, opt ReadOptions) ([]Job, ReadStats, error) {
	var records []TaskRecord
	stats, err := ReadTasksOpts(r, opt, func(rec TaskRecord) error {
		records = append(records, rec)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return GroupTasksN(records, opt.Workers), stats, nil
}

// DefaultMaxOpenJobs is the ForEachJob job-window size: the number of
// distinct in-flight jobs held before the least-recently-touched one is
// flushed to the callback. The Alibaba trace is approximately grouped
// by job, so a few thousand open jobs comfortably covers the
// interleaving seen in practice.
const DefaultMaxOpenJobs = 4096

// openJob is one in-flight job in the ForEachJob window.
type openJob struct {
	name  string
	tasks []TaskRecord
	elem  *list.Element // position in the recency list (front = hottest)
}

// ForEachJob streams batch_task rows from r and invokes fn once per
// job, emitting each job as soon as its rows stop arriving — memory is
// bounded by the job window (DefaultMaxOpenJobs distinct in-flight
// jobs), not by the table size. Within a job, tasks are sorted by task
// name exactly as GroupTasksN produces them; jobs are emitted in
// trace order (first-row order), not sorted by name.
//
// If a job's rows reappear after its window entry was already flushed
// (heavily out-of-order traces), the job is emitted again with the
// later rows only, and stats.ReopenedJobs counts the reopening — at the
// default window size this does not happen on trace-order inputs.
// A non-nil error from fn aborts the read.
func ForEachJob(r io.Reader, opt ReadOptions, fn func(Job) error) (ReadStats, error) {
	return forEachJobWindow(r, opt, DefaultMaxOpenJobs, fn)
}

func forEachJobWindow(r io.Reader, opt ReadOptions, maxOpen int, fn func(Job) error) (ReadStats, error) {
	open := make(map[string]*openJob)
	recency := list.New() // of *openJob; front = most recently touched
	emitted := make(map[string]bool)
	var reopened int64

	emit := func(oj *openJob) error {
		tasks := oj.tasks
		sort.Slice(tasks, func(i, j int) bool { return tasks[i].TaskName < tasks[j].TaskName })
		if emitted[oj.name] {
			reopened++
			obs.Default().Counter("trace.jobs_reopened").Add(1)
		}
		emitted[oj.name] = true
		return fn(Job{Name: oj.name, Tasks: tasks})
	}

	stats, err := ReadTasksOpts(r, opt, func(rec TaskRecord) error {
		oj := open[rec.JobName]
		if oj == nil {
			if len(open) >= maxOpen {
				coldest := recency.Remove(recency.Back()).(*openJob)
				delete(open, coldest.name)
				if err := emit(coldest); err != nil {
					return err
				}
			}
			oj = &openJob{name: rec.JobName}
			oj.elem = recency.PushFront(oj)
			open[rec.JobName] = oj
		} else {
			recency.MoveToFront(oj.elem)
		}
		oj.tasks = append(oj.tasks, rec)
		return nil
	})
	stats.ReopenedJobs = reopened
	if err != nil {
		return stats, err
	}
	// Flush the window coldest-first for a deterministic tail that
	// matches the eviction order rows would have forced.
	for recency.Len() > 0 {
		coldest := recency.Remove(recency.Back()).(*openJob)
		if err := emit(coldest); err != nil {
			stats.ReopenedJobs = reopened
			return stats, err
		}
	}
	stats.ReopenedJobs = reopened
	return stats, nil
}
