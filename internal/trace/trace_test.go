package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTasks() []TaskRecord {
	return []TaskRecord{
		{TaskName: "M1", InstanceNum: 4, JobName: "j_1", TaskType: "1",
			Status: StatusTerminated, StartTime: 100, EndTime: 160, PlanCPU: 100, PlanMem: 0.5},
		{TaskName: "R2_1", InstanceNum: 1, JobName: "j_1", TaskType: "1",
			Status: StatusTerminated, StartTime: 160, EndTime: 200, PlanCPU: 50, PlanMem: 0.3},
		{TaskName: "task_xyz", InstanceNum: 1, JobName: "j_2", TaskType: "2",
			Status: StatusRunning, StartTime: 90, EndTime: 0, PlanCPU: 0, PlanMem: 0},
	}
}

func TestTaskRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := sampleTasks()
	if err := WriteTasks(&buf, want); err != nil {
		t.Fatal(err)
	}
	var got []TaskRecord
	if err := ReadTasks(&buf, func(r TaskRecord) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestTaskRoundTripProperty(t *testing.T) {
	statuses := []Status{StatusTerminated, StatusFailed, StatusRunning, StatusWaiting}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		recs := make([]TaskRecord, n)
		for i := range recs {
			recs[i] = TaskRecord{
				TaskName:    "M" + string(rune('1'+rng.Intn(9))),
				InstanceNum: rng.Intn(100),
				JobName:     "j_x",
				TaskType:    "1",
				Status:      statuses[rng.Intn(len(statuses))],
				StartTime:   int64(rng.Intn(1_000_000)),
				EndTime:     int64(rng.Intn(1_000_000)),
				PlanCPU:     float64(rng.Intn(1000)) / 2,
				PlanMem:     rng.Float64(),
			}
		}
		var buf bytes.Buffer
		if err := WriteTasks(&buf, recs); err != nil {
			return false
		}
		var got []TaskRecord
		if err := ReadTasks(&buf, func(r TaskRecord) error {
			got = append(got, r)
			return nil
		}); err != nil {
			return false
		}
		return reflect.DeepEqual(got, recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTasksEmptyNumericFields(t *testing.T) {
	// The raw trace frequently leaves plan_cpu/plan_mem empty.
	in := "M1,1,j_1,1,Terminated,100,200,,\n"
	var got []TaskRecord
	if err := ReadTasks(strings.NewReader(in), func(r TaskRecord) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].PlanCPU != 0 || got[0].PlanMem != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestReadTasksMalformed(t *testing.T) {
	cases := map[string]string{
		"bad column count": "M1,1,j_1\n",
		"bad int":          "M1,xx,j_1,1,Terminated,100,200,1,1\n",
		"bad float":        "M1,1,j_1,1,Terminated,100,200,zz,1\n",
		"empty job":        "M1,1,,1,Terminated,100,200,1,1\n",
		"negative time":    "M1,1,j_1,1,Terminated,-5,200,1,1\n",
	}
	for name, in := range cases {
		if err := ReadTasks(strings.NewReader(in), func(TaskRecord) error { return nil }); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadTasksCallbackError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTasks(&buf, sampleTasks()); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop")
	count := 0
	err := ReadTasks(&buf, func(TaskRecord) error {
		count++
		if count == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || count != 2 {
		t.Fatalf("err=%v count=%d", err, count)
	}
}

func TestInstanceRoundTrip(t *testing.T) {
	want := []InstanceRecord{
		{InstanceName: "i_1", TaskName: "M1", JobName: "j_1", TaskType: "1",
			Status: StatusTerminated, StartTime: 10, EndTime: 20, MachineID: "m_42",
			SeqNo: 1, TotalSeqNo: 4, CPUAvg: 50, CPUMax: 90, MemAvg: 0.2, MemMax: 0.4},
		{InstanceName: "i_2", TaskName: "M1", JobName: "j_1", TaskType: "1",
			Status: StatusFailed, StartTime: 10, EndTime: 0, MachineID: "m_7",
			SeqNo: 2, TotalSeqNo: 4},
	}
	var buf bytes.Buffer
	if err := WriteInstances(&buf, want); err != nil {
		t.Fatal(err)
	}
	var got []InstanceRecord
	if err := ReadInstances(&buf, func(r InstanceRecord) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestInstanceValidate(t *testing.T) {
	bad := InstanceRecord{InstanceName: "i", TaskName: "M1", JobName: "j", SeqNo: 5, TotalSeqNo: 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("seq_no > total accepted")
	}
	if err := (InstanceRecord{InstanceName: "i"}).Validate(); err == nil {
		t.Fatal("missing names accepted")
	}
}

func TestDurations(t *testing.T) {
	tr := TaskRecord{StartTime: 100, EndTime: 160}
	if tr.Duration() != 60 {
		t.Fatalf("duration = %g", tr.Duration())
	}
	if (TaskRecord{StartTime: 100, EndTime: 0}).Duration() != 0 {
		t.Fatal("unfinished duration should be 0")
	}
	ir := InstanceRecord{StartTime: 5, EndTime: 9}
	if ir.Duration() != 4 {
		t.Fatalf("instance duration = %g", ir.Duration())
	}
}

func TestStatusKnown(t *testing.T) {
	for _, s := range []Status{StatusWaiting, StatusReady, StatusRunning,
		StatusTerminated, StatusFailed, StatusCancelled, StatusInterrupted} {
		if !s.Known() {
			t.Errorf("%s not known", s)
		}
	}
	if Status("Banana").Known() {
		t.Fatal("unknown status accepted")
	}
}

func TestGroupTasks(t *testing.T) {
	jobs := GroupTasksN(sampleTasks(), 1)
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(jobs))
	}
	if jobs[0].Name != "j_1" || len(jobs[0].Tasks) != 2 {
		t.Fatalf("job[0] = %+v", jobs[0])
	}
	if jobs[0].Tasks[0].TaskName != "M1" {
		t.Fatal("tasks not sorted")
	}
	if jobs[1].Name != "j_2" {
		t.Fatal("jobs not sorted")
	}
}

func TestJobWindow(t *testing.T) {
	jobs := GroupTasksN(sampleTasks(), 1)
	start, end, ok := jobs[0].Window()
	if !ok || start != 100 || end != 200 {
		t.Fatalf("window = %d..%d ok=%v", start, end, ok)
	}
	// j_2's only task is unfinished.
	if _, _, ok := jobs[1].Window(); ok {
		t.Fatal("unfinished job reported a window")
	}
}

func TestJobAllTerminated(t *testing.T) {
	jobs := GroupTasksN(sampleTasks(), 1)
	if !jobs[0].AllTerminated() {
		t.Fatal("j_1 should be terminated")
	}
	if jobs[1].AllTerminated() {
		t.Fatal("j_2 has a running task")
	}
	if (Job{}).AllTerminated() {
		t.Fatal("empty job cannot be terminated")
	}
}

func TestReadJobs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTasks(&buf, sampleTasks()); err != nil {
		t.Fatal(err)
	}
	jobs, err := ReadJobs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d", len(jobs))
	}
}

func TestWriteTasksRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	err := WriteTasks(&buf, []TaskRecord{{TaskName: "M1"}}) // no job name
	if err == nil {
		t.Fatal("invalid record written")
	}
}

func TestReadInstancesMalformed(t *testing.T) {
	base := "i_1,M1,j_1,1,Terminated,10,20,m_1,1,4,50,90,0.2,0.4\n"
	if err := ReadInstances(strings.NewReader(base), func(InstanceRecord) error { return nil }); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	cases := map[string]string{
		"bad start":    "i_1,M1,j_1,1,Terminated,xx,20,m_1,1,4,50,90,0.2,0.4\n",
		"bad end":      "i_1,M1,j_1,1,Terminated,10,xx,m_1,1,4,50,90,0.2,0.4\n",
		"bad seq":      "i_1,M1,j_1,1,Terminated,10,20,m_1,xx,4,50,90,0.2,0.4\n",
		"bad total":    "i_1,M1,j_1,1,Terminated,10,20,m_1,1,xx,50,90,0.2,0.4\n",
		"bad cpu_avg":  "i_1,M1,j_1,1,Terminated,10,20,m_1,1,4,xx,90,0.2,0.4\n",
		"bad cpu_max":  "i_1,M1,j_1,1,Terminated,10,20,m_1,1,4,50,xx,0.2,0.4\n",
		"bad mem_avg":  "i_1,M1,j_1,1,Terminated,10,20,m_1,1,4,50,90,xx,0.4\n",
		"bad mem_max":  "i_1,M1,j_1,1,Terminated,10,20,m_1,1,4,50,90,0.2,xx\n",
		"seq > total":  "i_1,M1,j_1,1,Terminated,10,20,m_1,9,4,50,90,0.2,0.4\n",
		"column count": "i_1,M1,j_1\n",
	}
	for name, in := range cases {
		if err := ReadInstances(strings.NewReader(in), func(InstanceRecord) error { return nil }); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadInstancesCallbackError(t *testing.T) {
	in := "i_1,M1,j_1,1,Terminated,10,20,m_1,1,4,50,90,0.2,0.4\n"
	sentinel := errors.New("stop")
	err := ReadInstances(strings.NewReader(in), func(InstanceRecord) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadMachinesMalformed(t *testing.T) {
	good := "m_1,0,fd_1,rack_1,96,1,USING\n"
	if err := ReadMachines(strings.NewReader(good), func(MachineRecord) error { return nil }); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	cases := map[string]string{
		"bad ts":       "m_1,xx,fd_1,rack_1,96,1,USING\n",
		"bad cpu":      "m_1,0,fd_1,rack_1,xx,1,USING\n",
		"bad mem":      "m_1,0,fd_1,rack_1,96,xx,USING\n",
		"neg cpu":      "m_1,0,fd_1,rack_1,-2,1,USING\n",
		"empty id":     ",0,fd_1,rack_1,96,1,USING\n",
		"column count": "m_1,0\n",
	}
	for name, in := range cases {
		if err := ReadMachines(strings.NewReader(in), func(MachineRecord) error { return nil }); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	sentinel := errors.New("halt")
	if err := ReadMachines(strings.NewReader(good), func(MachineRecord) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatal("callback error not propagated")
	}
}

func TestTaskValidateBranches(t *testing.T) {
	bads := []TaskRecord{
		{JobName: "j"},   // empty task name
		{TaskName: "M1"}, // empty job
		{TaskName: "M1", JobName: "j", InstanceNum: -1}, // negative instances
		{TaskName: "M1", JobName: "j", EndTime: -5},     // negative time
	}
	for i, r := range bads {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, r)
		}
	}
}
