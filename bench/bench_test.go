package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"jobgraph/internal/serve"
)

// testSizes shrink every workload to a short run: a 2k-job CSV, n=40
// analyses, and serve windows of a fraction of a second.
var testSizes = sizes{
	csvJobs:          2_000,
	csvSample:        100,
	clusterJobs:      2_000,
	clusterN:         40,
	trainJobs:        2_000,
	trainSample:      60,
	heldJobs:         2_000,
	queries:          200,
	replayJobs:       200,
	classifyRate:     2_000,
	mixedRate:        300,
	classifyCapacity: 5_000,
	mixedCapacity:    500,
	getShare:         0.8,
	clients:          16,
}

// metricName is the benchmark contract's form of a metric name.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclaredMetrics holds the metric catalogue equal to BENCHMARK.json
// and within the contract's naming rules and caps.
func TestDeclaredMetrics(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		code     []metricDef
		declared []specMetric
		limit    int
	}{
		{"end_to_end", endToEnd, sp.EndToEnd, 16},
		{"per_layer", perLayer, sp.PerLayer, 128},
	} {
		if len(c.code) > c.limit {
			t.Errorf("%s: %d metrics, cap %d", c.kind, len(c.code), c.limit)
		}
		units := map[string]string{}
		for _, d := range c.code {
			if !metricName.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", c.kind, d.name)
			}
			if _, dup := units[d.name]; dup {
				t.Errorf("%s: %s declared twice", c.kind, d.name)
			}
			units[d.name] = d.unit
		}
		for _, m := range c.declared {
			unit, ok := units[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: BENCHMARK.json declares %s, which the benchmark does not report", c.kind, m.Name)
			case unit != m.Unit:
				t.Errorf("%s: %s is reported in %s, declared in %s", c.kind, m.Name, unit, m.Unit)
			}
			delete(units, m.Name)
		}
		for name := range units {
			t.Errorf("%s: %s is reported but not declared in BENCHMARK.json", c.kind, name)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, benchmark has %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestWorkloadsShort runs every workload small and traced, and checks
// that each reports every metric, with its unit, and that no op failed.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := execute(config{
				workload: w.name,
				seed:     1,
				d:        time.Second,
				sizes:    testSizes,
				traced:   true,
				scratch:  t.TempDir(),
			}, hostInfo(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				defs     []metricDef
				required bool
			}{{endToEnd, true}, {perLayer, false}} {
				res, err := r.result(c.defs, c.required)
				if err != nil {
					t.Fatal(err)
				}
				checkResultLine(t, res, c.defs)
			}
			if r.failed != 0 || len(r.problems) != 0 {
				t.Errorf("%d of %d ops failed: %v", r.failed, r.attempted, r.problems)
			}
		})
	}
}

// checkResultLine encodes res as a run prints it and checks the line's
// keys and every metric's unit.
func checkResultLine(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(line, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("result line lacks %q", key)
		}
	}
	if len(decoded) != 4 {
		t.Errorf("result line has %d keys, want 4", len(decoded))
	}
	if res.Attempted < 1 {
		t.Errorf("attempted %d", res.Attempted)
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
	}
}

// TestWrongAnswersFail checks that outputs the checks reject count as
// failed ops: one corrupted classification, and a batch digest that does
// not match the committed one.
func TestWrongAnswersFail(t *testing.T) {
	t.Run("classification", func(t *testing.T) {
		s, err := setupServe(t.TempDir(), 1, testSizes, false)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		real := s.handler
		var corrupted atomic.Bool
		s.handler = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if corrupted.Swap(true) {
				real.ServeHTTP(w, req)
				return
			}
			rec := httptest.NewRecorder()
			real.ServeHTTP(rec, req)
			var res serve.Result
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Error(err)
			}
			res.Group += "-wrong"
			w.WriteHeader(http.StatusOK)
			json.NewEncoder(w).Encode(res)
		})
		r := newRun()
		s.measure(r, 500*time.Millisecond)
		if r.failed != 1 || len(r.problems) != 1 {
			t.Errorf("failed %d of %d, problems %v; want the one corrupted response", r.failed, r.attempted, r.problems)
		}
	})
	t.Run("digest", func(t *testing.T) {
		b, err := setupCluster(t.TempDir(), 1, testSizes)
		if err != nil {
			t.Fatal(err)
		}
		b.want = "not the digest"
		r := newRun()
		b.measure(r, 0)
		if r.failed != r.attempted || r.attempted == 0 {
			t.Errorf("failed %d of %d ops; want all", r.failed, r.attempted)
		}
	})
}
