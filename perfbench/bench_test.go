package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/property"
	"repro/internal/trace"
)

// TestShortEveryWorkload runs every workload in short mode, untraced and
// traced: the gate passes, the traced run reproduces the untraced one,
// and exactly the declared metrics come out, all finite.
func TestShortEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := measure(w, 2, 0, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d violations=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.violations)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", w.name, traced, d.name, m)
				}
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]any
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := last[k]; !ok || len(last) != 4 {
					t.Errorf("%s: result line keys %v, want correct/attempted/failed/metrics", w.name, last)
				}
			}
		}
	}
}

// shortRep executes one short paper-hybrid simulation for the gate tests.
func shortRep(t *testing.T) *rep {
	t.Helper()
	sc := genPaperHybrid(rand.New(rand.NewSource(3)), true)
	r, _, err := execute(sc, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if v, _, _ := r.check(); len(v) != 0 {
		t.Fatalf("clean run fails the gate: %v", v)
	}
	return r
}

func hasKind(violations []string, kind string) bool {
	for _, v := range violations {
		if strings.HasPrefix(v, kind+":") {
			return true
		}
	}
	return false
}

// asTrace converts the live members' logs to the trace model, so the
// gate's order check can be compared with property.TotalOrder.
func asTrace(r *rep) trace.Trace {
	var tr trace.Trace
	for p, log := range r.logs {
		for _, d := range log {
			m := trace.Message{ID: ids.MsgID(d.cast), Sender: r.sc.casts[d.cast].sender}
			tr = append(tr, trace.Deliver(ids.ProcID(p), m))
		}
	}
	return tr
}

// TestGateTripsOnReorder swaps two deliveries at one member: the gate
// must report an order violation, agreeing with property.TotalOrder.
func TestGateTripsOnReorder(t *testing.T) {
	r := shortRep(t)
	if !(property.TotalOrder{}).Holds(asTrace(r)) {
		t.Fatal("property.TotalOrder rejects a run the gate accepts")
	}
	log := r.logs[1]
	log[10], log[11] = log[11], log[10]
	v, _, _ := r.check()
	if !hasKind(v, "order") {
		t.Errorf("reordered delivery passed the gate: %v", v)
	}
	if (property.TotalOrder{}).Holds(asTrace(r)) {
		t.Error("property.TotalOrder accepts the reordered run")
	}
}

func TestGateTripsOnDuplicate(t *testing.T) {
	r := shortRep(t)
	r.logs[2] = append(r.logs[2], r.logs[2][5])
	if v, _, _ := r.check(); !hasKind(v, "duplicate") {
		t.Errorf("double delivery passed the gate: %v", v)
	}
}

func TestGateTripsOnUnsent(t *testing.T) {
	r := shortRep(t)
	a := &app{r: r, self: 0}
	a.Deliver(0, []byte{0xff})
	if v, _, _ := r.check(); !hasKind(v, "unsent") {
		t.Errorf("delivery of an unsent message passed the gate: %v", v)
	}
}

// TestGateTripsOnLoss: a fault-free workload must deliver every cast to
// every member.
func TestGateTripsOnLoss(t *testing.T) {
	r := shortRep(t)
	r.logs[3] = r.logs[3][:len(r.logs[3])-1]
	if v, _, _ := r.check(); !hasKind(v, "lost") {
		t.Errorf("lost delivery passed the gate: %v", v)
	}
}

// TestGateTripsOnBoundary: an old-epoch message delivered after a
// newer-epoch one breaks the switching protocol's guarantee.
func TestGateTripsOnBoundary(t *testing.T) {
	r := shortRep(t)
	log := r.logs[0]
	r.made[log[0].cast].epoch = 7
	if v, _, _ := r.check(); !hasKind(v, "boundary") {
		t.Errorf("epoch regression passed the gate: %v", v)
	}
}

// TestSeedsDriveInputs: equal seeds give identical virtual outputs, and
// another seed gives other inputs.
func TestSeedsDriveInputs(t *testing.T) {
	w, err := workloadByName("churn-faults")
	if err != nil {
		t.Fatal(err)
	}
	virtualOf := func(seed int64) map[string]metricValue {
		res, err := measure(w, seed, 0, false, true)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]metricValue{}
		for _, k := range []string{"latency_p50_ms", "latency_p99_ms", "switch_p50_ms", "outage_ms", "delivered_frac"} {
			out[k] = res.Metrics[k]
		}
		return out
	}
	if a, b := virtualOf(5), virtualOf(5); !reflect.DeepEqual(a, b) {
		t.Errorf("seed 5 twice: %v vs %v", a, b)
	}
	a := w.gen(rand.New(rand.NewSource(1)), true)
	b := w.gen(rand.New(rand.NewSource(2)), true)
	if a.victim == b.victim && a.crashAt == b.crashAt && reflect.DeepEqual(a.casts, b.casts) {
		t.Error("seeds 1 and 2 generated the same inputs")
	}
}

// TestNamesMatchBenchmarkJSON keeps BENCHMARK.json and the program's
// workload and metric tables in step.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-hybrid", "--trace", "2"},
		{"--bogus"},
	} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if out.Len() != 0 {
		t.Errorf("bad arguments printed a result: %q", out.String())
	}
}
