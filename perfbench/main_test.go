package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tinyRun sets a workload up at tiny scale and runs limit operations per
// session, untraced then traced, checking the correctness gate after each.
func tinyRun(t *testing.T, w *workload, seed int64, limit int) (*bench, *window) {
	t.Helper()
	b, err := setup(w, seed, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.db.Close)
	win, err := b.run("untraced", 0, limit, false)
	if err != nil {
		t.Fatal(err)
	}
	if win.failed != 0 || win.writes == 0 {
		t.Fatalf("%s: %d of %d operations failed, %d writes", w.name, win.failed, win.attempted, win.writes)
	}
	if err := b.gate(); err != nil {
		t.Fatalf("%s: correctness gate: %v", w.name, err)
	}
	return b, win
}

func TestTinyRunsPassGate(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b, untraced := tinyRun(t, w, 7, 120)
			traced, err := b.run("traced", 0, 60, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.gate(); err != nil {
				t.Fatalf("after traced window: %v", err)
			}
			pr, err := runProbes(b, runConfig{w: w, seed: 7, sz: tinyScale})
			if err != nil {
				t.Fatal(err)
			}
			vals, err := layerValues(untraced, traced, pr, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if len(vals) != len(layerMetrics) {
				t.Fatalf("%d per-layer metrics, want %d", len(vals), len(layerMetrics))
			}
			if len(durationsOf(traced.logs, "cluster.insert")) == 0 {
				t.Error("traced window recorded no insert spans")
			}
		})
	}
}

// Sessions own disjoint keys, so the paper's logical costs of a fixed
// same-seed statement stream do not depend on how the two sessions'
// statements interleave — except the victim scans' page count: a delete or
// update scans whole fragments, other session's rows included, so how many
// pages it reads depends on how far the other session has got.
func TestOLTPCostsRepeat(t *testing.T) {
	w, _ := workloadByName("oltp-tcp")
	costs := func() (ios, msgs, scans float64) {
		_, win := tinyRun(t, w, 3, 150)
		d := win.metrics
		n := float64(win.writes)
		scan := d.Total().ScanPages
		return float64(d.TotalIOs()-scan) / n, float64(d.Net.Messages) / n, float64(scan) / n
	}
	ios1, msgs1, scans1 := costs()
	ios2, msgs2, scans2 := costs()
	if ios1 != ios2 || msgs1 != msgs2 {
		t.Fatalf("same seed, different costs: non-scan I/Os per stmt %v vs %v, msgs/stmt %v vs %v", ios1, ios2, msgs1, msgs2)
	}
	if scans1 == 0 || scans2 == 0 {
		t.Fatalf("no victim-scan pages (%v, %v): the stream lost its deletes and updates", scans1, scans2)
	}
}

// Every branch of each generator is live: over a long stream each
// (operation, table) pair the workload describes makes up a real share.
func TestStreamMixes(t *testing.T) {
	want := map[string][]string{
		"oltp-tcp":        {"read ", "insert orders", "delete orders", "update orders", "update customer"},
		"bulk-durable":    {"read ", "insert orders", "delete orders"},
		"manyviews-async": {"read ", "insert customer", "delete customer"},
	}
	const n = 20_000
	for _, w := range workloads {
		st := w.newStream(1, 0, fullScale)
		got := map[string]int{}
		for i := 0; i < n; i++ {
			o := st.next()
			got[kindNames[o.kind]+" "+o.table]++
			if o.kind != kRead {
				st.applied(o)
			}
		}
		if len(got) != len(want[w.name]) {
			t.Errorf("%s: mix %v, want exactly %v", w.name, got, want[w.name])
		}
		for _, k := range want[w.name] {
			if got[k] < n/20 {
				t.Errorf("%s: %q is %d of %d operations, want at least 5%%", w.name, k, got[k], n)
			}
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {19, 0.50, false}, {20, 0.50, true},
	} {
		v, err := percentile(samples(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%v", c.p*100, c.n, err, c.ok)
		}
		if c.ok && c.p == 0.99 && v != 990 {
			t.Errorf("p99 of 1..1000 = %v, want 990", v)
		}
	}
	if got := durations([]time.Duration{time.Millisecond}, time.Microsecond); got[0] != 1000 {
		t.Errorf("durations = %v", got)
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the program
// reports, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, want)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		want := layerMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, want)
		}
	}
}
