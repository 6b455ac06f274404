// Command perfbench is joinview's benchmark. It opens a cluster through
// joinview.Open, loads one seeded workload, drives it in a closed loop
// from its sessions (at most two client goroutines) for a fixed time,
// checks that every view and structure is still correct, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; failed /
// attempted is the run's error rate (errors and refusals such as
// ErrOverload, against every operation tried).
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced on
// three clusters set up in turn, a third of the time each, and pooled.
// With -trace 1 the run measures a short untraced window and then a
// traced one of the full length, times standalone probes of single
// layers, and reports the per-layer metrics; the spans go to a file at
// exit.
//
// Run it with perfbench/run.sh from the repository root, which builds it
// first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many clusters an untraced run opens, loads, warms and
// measures in turn; setup_s is the median of their set-up times.
const setupRuns = 3

type runConfig struct {
	w        *workload
	seed     int64
	seconds  time.Duration
	sz       scale
	trace    bool
	traceDir string // where the traced run writes its spans
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory for the traced run's span file")
	if err := fs.Parse(os.Args[1:]); err != nil {
		usage(os.Stderr)
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		usage(os.Stderr)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload of the list, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		sz: fullScale, trace: *trace == 1, traceDir: *traceDir}
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d: %d operations, %d failed (error rate %.4g), nproc %d, %s\n",
		w.name, *seed, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)),
		runtime.NumCPU(), runtime.Version())
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measure runs one benchmark invocation and returns its result, or an
// error when the run could not complete or failed the correctness gate.
// An untraced run sets up setupRuns clusters in turn and measures a
// window of a setupRuns-th of the time on each, so what one cluster's
// layout or timing does to it weighs a third; the figures pool all
// windows, and setup_s is the median set-up time.
func measure(cfg runConfig) (*result, error) {
	res := &result{Correct: true}
	if cfg.trace {
		return measureTraced(cfg, res)
	}
	var setupS []float64
	var wins []*window
	for i := 0; i < setupRuns; i++ {
		b, s, win, err := openAndMeasure(cfg, cfg.seconds/setupRuns, res)
		if err != nil {
			return nil, err
		}
		err = b.gate()
		b.db.Close()
		if err != nil {
			return nil, fmt.Errorf("correctness gate: %w", err)
		}
		setupS = append(setupS, s)
		wins = append(wins, win)
	}
	fmt.Fprintf(os.Stderr, "set-up seconds: %.3f\n", setupS)
	fmt.Println(readP99Note(wins))
	var err error
	res.Metrics, err = endToEndValues(wins, median(setupS))
	return res, err
}

// openAndMeasure sets a cluster up, timing it, lets the closed loop
// settle (heap size, connections, statistics drift) and then measures an
// untraced window of length d. Every operation counts in res, settling
// included. The caller closes the returned bench.
func openAndMeasure(cfg runConfig, d time.Duration, res *result) (*bench, float64, *window, error) {
	t0 := time.Now()
	b, err := setup(cfg.w, cfg.seed, cfg.sz)
	if err != nil {
		return nil, 0, nil, err
	}
	setupS := time.Since(t0).Seconds()
	settle, err := b.run("settle", d/10, 0, false)
	var win *window
	if err == nil {
		win, err = b.run("untraced", d, 0, false)
	}
	if err != nil {
		b.db.Close()
		return nil, 0, nil, err
	}
	res.Attempted += settle.attempted + win.attempted
	res.Failed += settle.failed + win.failed
	return b, setupS, win, nil
}

// measureTraced runs the traced window of the full length on one cluster,
// after an untraced window a quarter as long that is only the reference
// for trace.overhead_frac, then the probes and the gate.
func measureTraced(cfg runConfig, res *result) (*result, error) {
	b, _, win, err := openAndMeasure(cfg, cfg.seconds/4, res)
	if err != nil {
		return nil, err
	}
	defer b.db.Close()
	traced, err := b.run("traced", cfg.seconds, 0, true)
	if err != nil {
		return nil, err
	}
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	pr, err := runProbes(b, cfg)
	if err != nil {
		return nil, err
	}
	rep, err := b.db.StorageReport()
	if err != nil {
		return nil, err
	}
	baseRows := 0
	for _, e := range rep.Entries {
		if e.Kind == "table" {
			baseRows += e.Rows
		}
	}
	if err := b.gate(); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	if res.Metrics, err = layerValues(win, traced, pr, ratio(float64(rep.Overhead()), float64(baseRows))); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	if err := writeTrace(path, header(cfg), traced.logs); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", path)
	return res, nil
}

func runProbes(b *bench, cfg runConfig) (probeResults, error) {
	var pr probeResults
	var err error
	rows := sampleBatch(cfg.w, cfg.seed, cfg.sz)
	table := cfg.w.dml[0].table
	if pr.compile, err = probeCompile(b.c, cfg.w.dml); err != nil {
		return pr, fmt.Errorf("compile probe: %w", err)
	}
	if pr.fragInsert, err = probeFragmentInsert(b.c, table, rows); err != nil {
		return pr, fmt.Errorf("fragment probe: %w", err)
	}
	pr.walForce = probeWAL(rows)
	if pr.tcpCall, err = probeTCP(rows); err != nil {
		return pr, fmt.Errorf("tcp probe: %w", err)
	}
	if pr.chanCall, err = probeChan(rows); err != nil {
		return pr, fmt.Errorf("chan probe: %w", err)
	}
	if pr.codec, err = probeCodec(rows); err != nil {
		return pr, fmt.Errorf("codec probe: %w", err)
	}
	pr.lock = probeLocks(b.c, table)
	return pr, nil
}

func header(cfg runConfig) traceHeader {
	h := traceHeader{Workload: cfg.w.name, Why: cfg.w.why, Seed: cfg.seed,
		NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	for _, m := range layerMetrics {
		h.Layers = append(h.Layers, layerEntry{m.name, m.unit, m.moves, m.mostWork, m.flatOn})
	}
	return h
}

func usage(out io.Writer) {
	var b strings.Builder
	b.WriteString(`usage: perfbench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-trace-dir DIR]

Runs one seeded joinview workload in a closed loop for S seconds (split
over three freshly set-up clusters unless traced), checks the result
(every view equals its recomputed join, every auxiliary structure is
consistent, base tables hold the generated stream's net rows, async
queues drain) and prints each metric with its unit. The last line is
JSON; failed/attempted there is the error rate.

workloads:
`)
	for _, w := range workloads {
		fmt.Fprintf(&b, "  %-16s %d session(s): %s\n", w.name, w.sessions, w.why)
	}
	b.WriteString("\nend-to-end metrics (-trace 0):\n")
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "  %-24s %-7s %s\n", m.name, m.unit, m.what)
	}
	fmt.Fprintf(&b, "  %-24s %-7s %s\n", "read_p99_ms", "ms", "view read latency, 99th percentile: printed, not in the JSON (too host-sensitive to gate)")
	b.WriteString("\nper-layer metrics (-trace 1): name unit | moves | most work in | should stay flat on\n")
	for _, m := range layerMetrics {
		fmt.Fprintf(&b, "  %-38s %-8s | %s | %s | %s\n", m.name, m.unit, m.moves, m.mostWork, m.flatOn)
	}
	b.WriteString("\nallocs_per_stmt and runtime.alloc_bytes_per_stmt count the whole process,\nthe benchmark's own statement generation included.\n")
	fmt.Fprint(out, b.String())
}
