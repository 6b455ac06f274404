package main

import (
	"fmt"
	"os"
	"time"

	"joinview/internal/storage"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef describes one end-to-end metric. bound is the share of the
// parent's median by which the metric may worsen before a change counts
// as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
	what               string
}

// endToEnd are the metrics a user of the database sees, measured with
// tracing off. Per-statement counts divide by acknowledged DML
// statements; reads are not statements.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "open + load + DDL + warm-up until a round adds no plan to the plan cache (median of the run's 3 set-ups)"},
	{"stmts_per_s", "1/s", "higher", 0.25, "acknowledged DML statements per second; async windows include the final Flush"},
	{"write_p50_ms", "ms", "lower", 0.25, "DML acknowledgement latency, median"},
	{"write_p99_ms", "ms", "lower", 0.25, "DML acknowledgement latency, 99th percentile (>= 1,000 samples)"},
	{"read_p50_ms", "ms", "lower", 0.25, "view read latency (MVCC snapshot at the watermark), median"},
	{"tw_ios_per_stmt", "I/Os", "lower", 0.08, "paper TW: I/Os summed over nodes, per statement"},
	{"max_node_ios_per_stmt", "I/Os", "lower", 0.08, "paper response-time proxy: busiest node's I/Os, per statement"},
	{"msgs_per_stmt", "msgs", "lower", 0.05, "paper SEND: interconnect messages per statement"},
	{"allocs_per_stmt", "allocs", "lower", 0.1, "heap allocations per statement (whole process: reads and the benchmark's own statement generation included)"},
	{"live_heap_mb", "MiB", "lower", 0.2, "live heap found by GC, median of 100 ms samples over the window"},
}

// layerDef describes one per-layer metric of the traced run and the
// end-to-end metric it should move, on which workload.
type layerDef struct {
	name, unit, better string
	moves, mostWork    string
	flatOn             string
}

func stageLayers() []layerDef {
	var out []layerDef
	for _, st := range maintainStages {
		work := "bulk-durable"
		if st == "sharedjoin" {
			work = "manyviews-async"
		}
		for _, c := range []struct{ suffix, unit string }{{"execs_per_stmt", "count"}, {"pages_per_stmt", "I/Os"}, {"msgs_per_stmt", "msgs"}} {
			out = append(out, layerDef{"maintain." + st + "." + c.suffix, c.unit, "lower",
				"tw_ios_per_stmt, msgs_per_stmt", work, "-"})
		}
	}
	return out
}

var maintainStages = []string{"base", "auxrel", "globalindex", "sharedjoin", "view"}

var storageCounts = []struct {
	name string
	get  func(storage.Counts) int64
}{
	{"searches", func(c storage.Counts) int64 { return c.Searches }},
	{"fetches", func(c storage.Counts) int64 { return c.Fetches }},
	{"inserts", func(c storage.Counts) int64 { return c.Inserts }},
	{"deletes", func(c storage.Counts) int64 { return c.Deletes }},
	{"scan_pages", func(c storage.Counts) int64 { return c.ScanPages }},
	{"sort_pages", func(c storage.Counts) int64 { return c.SortPages }},
}

func storageLayers() []layerDef {
	var out []layerDef
	for _, c := range storageCounts {
		out = append(out, layerDef{"storage." + c.name + "_per_stmt", "count", "lower",
			"tw_ios_per_stmt, max_node_ios_per_stmt", "bulk-durable (inserts), oltp-tcp (victim-scan pages)", "-"})
	}
	return out
}

// layerMetrics is every per-layer metric, in report order.
var layerMetrics = concat(
	[]layerDef{
		{"sql.parse_us", "us", "lower", "write_p50_ms", "oltp-tcp", "bulk-durable, manyviews-async (typed API)"},
	},
	kindLayers(),
	[]layerDef{
		{"cluster.flush_us", "us", "lower", "stmts_per_s", "manyviews-async", "others (not called)"},
		{"mplan.plan_cache_hit_rate", "fraction", "higher", "setup_s, write_p99_ms", "oltp-tcp", "-"},
		{"mplan.plan_cache_misses", "count", "lower", "setup_s, write_p99_ms", "oltp-tcp", "-"},
		{"mplan.compile_us", "us", "lower", "setup_s, write_p99_ms", "oltp-tcp", "-"},
	},
	stageLayers(),
	storageLayers(),
	[]layerDef{
		{"storage.fragment_insert_us", "us", "lower", "stmts_per_s", "bulk-durable", "manyviews-async"},
		{"storage.overhead_rows_per_base_row", "rows", "lower", "live_heap_mb", "bulk-durable", "-"},
		{"wal.log_pages_per_stmt", "I/Os", "lower", "write_p50_ms, stmts_per_s", "bulk-durable", "oltp-tcp, manyviews-async (zero)"},
		{"wal.coord_log_pages_per_stmt", "I/Os", "lower", "write_p50_ms, stmts_per_s", "bulk-durable", "oltp-tcp, manyviews-async (zero)"},
		{"wal.append_force_us", "us", "lower", "write_p50_ms, stmts_per_s", "bulk-durable", "oltp-tcp, manyviews-async"},
		{"netsim.envelopes_per_stmt", "count", "lower", "msgs_per_stmt, write_p50_ms", "oltp-tcp, bulk-durable", "-"},
		{"netsim.msgs_per_envelope", "msgs", "higher", "msgs_per_stmt, write_p50_ms", "oltp-tcp, bulk-durable", "-"},
		{"netsim.local_calls_per_stmt", "count", "lower", "msgs_per_stmt, write_p50_ms", "oltp-tcp, bulk-durable", "-"},
		{"netsim.tcp_call_us", "us", "lower", "write_p50_ms", "oltp-tcp", "manyviews-async (direct)"},
		{"netsim.chan_call_us", "us", "lower", "write_p50_ms", "bulk-durable", "manyviews-async (direct)"},
		{"types.row_codec_ns", "ns", "lower", "write_p50_ms (gob replacement)", "oltp-tcp", "manyviews-async"},
		{"lockmgr.lock_us", "us", "lower", "write_p99_ms", "oltp-tcp", "manyviews-async"},
		{"cluster.asyncq.cancel_frac", "fraction", "higher", "tw_ios_per_stmt, stmts_per_s", "manyviews-async", "others (zero)"},
		{"cluster.asyncq.tuples_per_epoch", "rows", "higher", "tw_ios_per_stmt, stmts_per_s", "manyviews-async", "others (zero)"},
		{"cluster.asyncq.epochs_per_1k_stmt", "count", "lower", "tw_ios_per_stmt, stmts_per_s", "manyviews-async", "others (zero)"},
		{"cluster.asyncq.lag_p99_ms", "ms", "lower", "tw_ios_per_stmt, stmts_per_s", "manyviews-async", "others (zero)"},
		{"cluster.asyncq.pending_at_drain", "count", "lower", "tw_ios_per_stmt, stmts_per_s", "manyviews-async", "others (zero)"},
		{"cluster.repl.mirrors_per_stmt", "count", "lower", "tw_ios_per_stmt, msgs_per_stmt", "bulk-durable", "others (zero)"},
		{"cluster.repl.evictions", "count", "lower", "tw_ios_per_stmt, msgs_per_stmt", "bulk-durable", "others (zero)"},
		{"cluster.retries", "count", "lower", "failed / attempted", "all", "-"},
		{"cluster.io_skew", "ratio", "lower", "max_node_ios_per_stmt", "all", "-"},
		{"runtime.gc_cpu_frac", "fraction", "lower", "allocs_per_stmt, write_p99_ms", "all", "-"},
		{"runtime.gc_cycles_per_1k_stmt", "count", "lower", "allocs_per_stmt, write_p99_ms", "all", "-"},
		{"runtime.alloc_bytes_per_stmt", "bytes", "lower", "allocs_per_stmt, write_p99_ms", "all", "-"},
		{"trace.overhead_frac", "fraction", "lower", "- (cost of the traced run)", "all", "-"},
	},
)

func kindLayers() []layerDef {
	var out []layerDef
	for _, k := range []kind{kInsert, kDelete, kUpdate, kRead} {
		moves, work, flat := "write_p50_ms, write_p99_ms", "all", "-"
		if k == kRead {
			moves, work, flat = "read_p50_ms, read_p99_ms", "oltp-tcp", "bulk-durable"
		}
		for _, p := range []string{"p50", "p99"} {
			out = append(out, layerDef{"cluster." + kindNames[k] + "_" + p + "_us", "us", "lower", moves, work, flat})
		}
	}
	return out
}

func concat(parts ...[]layerDef) []layerDef {
	var out []layerDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// readP99Note reports the read tail, which is printed but kept out of the
// gated end-to-end set: on a small shared machine it moves with the
// host's load by more than any useful bound.
func readP99Note(wins []*window) string {
	var reads []time.Duration
	for _, w := range wins {
		reads = append(reads, w.lat[kRead]...)
	}
	v, err := percentile(durations(reads, time.Millisecond), 0.99)
	if err != nil {
		return "read_p99_ms not measured: " + err.Error()
	}
	return fmt.Sprintf("%-40s %14.6g ms (not gated)", "read_p99_ms", v)
}

// endToEndValues computes every end-to-end metric from the pooled untraced
// windows. max_node_ios_per_stmt sums each window's busiest node.
func endToEndValues(wins []*window, setupS float64) (map[string]value, error) {
	var elapsed time.Duration
	var st, tw, maxNode, msgs, mallocs float64
	var writes, reads []time.Duration
	var heap []float64
	for _, w := range wins {
		elapsed += w.elapsed
		st += float64(w.writes)
		tw += float64(w.metrics.TotalIOs())
		maxNode += float64(w.metrics.MaxNodeIOs())
		msgs += float64(w.metrics.Net.Messages)
		mallocs += float64(w.mallocs)
		heap = append(heap, w.liveHeapMiB...)
		for k := kInsert; k < kRead; k++ {
			writes = append(writes, w.lat[k]...)
		}
		reads = append(reads, w.lat[kRead]...)
	}
	vals := map[string]float64{
		"setup_s":               setupS,
		"stmts_per_s":           st / elapsed.Seconds(),
		"tw_ios_per_stmt":       ratio(tw, st),
		"max_node_ios_per_stmt": ratio(maxNode, st),
		"msgs_per_stmt":         ratio(msgs, st),
		"allocs_per_stmt":       ratio(mallocs, st),
		"live_heap_mb":          median(heap),
	}
	for _, pc := range []struct {
		name    string
		samples []time.Duration
		p       float64
	}{
		{"write_p50_ms", writes, 0.50}, {"write_p99_ms", writes, 0.99},
		{"read_p50_ms", reads, 0.50},
	} {
		v, err := percentile(durations(pc.samples, time.Millisecond), pc.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pc.name, err)
		}
		vals[pc.name] = v
	}
	out := map[string]value{}
	for _, m := range endToEnd {
		out[m.name] = value{vals[m.name], m.unit}
	}
	return out, nil
}

// probeResults are the standalone layer timings of a traced run.
type probeResults struct {
	compile, fragInsert, walForce, tcpCall, chanCall, lock time.Duration
	codec                                                  time.Duration
}

// layerValues computes every per-layer metric from the traced window,
// the untraced window before it and the probes.
func layerValues(untraced, traced *window, pr probeResults, overhead float64) (map[string]value, error) {
	d := traced.metrics
	counts := d.Total()
	st := float64(traced.writes)
	us := func(x time.Duration) float64 { return float64(x) / float64(time.Microsecond) }
	vals := map[string]float64{
		"sql.parse_us":                       median(durations(durationsOf(traced.logs, "sql.parse"), time.Microsecond)),
		"cluster.flush_us":                   median(durations(durationsOf(traced.logs, "cluster.flush"), time.Microsecond)),
		"mplan.plan_cache_hit_rate":          ratio(float64(d.Pipeline.PlanCacheHits), float64(d.Pipeline.PlanCacheHits+d.Pipeline.PlanCacheMisses)),
		"mplan.plan_cache_misses":            float64(d.Pipeline.PlanCacheMisses),
		"mplan.compile_us":                   us(pr.compile),
		"storage.fragment_insert_us":         us(pr.fragInsert),
		"storage.overhead_rows_per_base_row": overhead,
		"wal.log_pages_per_stmt":             ratio(float64(counts.LogPages), st),
		"wal.coord_log_pages_per_stmt":       ratio(float64(d.Coord.LogPages), st),
		"wal.append_force_us":                us(pr.walForce),
		"netsim.envelopes_per_stmt":          ratio(float64(d.Net.Envelopes), st),
		"netsim.msgs_per_envelope":           ratio(float64(d.Net.Messages), float64(d.Net.Envelopes)),
		"netsim.local_calls_per_stmt":        ratio(float64(d.Net.LocalCalls), st),
		"netsim.tcp_call_us":                 us(pr.tcpCall),
		"netsim.chan_call_us":                us(pr.chanCall),
		"types.row_codec_ns":                 float64(pr.codec),
		"lockmgr.lock_us":                    us(pr.lock),
		"cluster.asyncq.cancel_frac":         d.Queue.CancelRate(),
		"cluster.asyncq.tuples_per_epoch":    ratio(float64(d.Queue.TuplesFlushed), float64(d.Queue.EpochsFlushed)),
		"cluster.asyncq.epochs_per_1k_stmt":  ratio(1000*float64(d.Queue.EpochsFlushed), st),
		"cluster.asyncq.pending_at_drain":    float64(traced.pendingAtDrain),
		"cluster.repl.mirrors_per_stmt":      ratio(float64(d.Repl.Mirrors), st),
		"cluster.repl.evictions":             float64(d.Repl.Evictions),
		"cluster.retries":                    float64(d.Retries),
		"cluster.io_skew":                    ratio(float64(d.MaxNodeIOs()), float64(d.TotalIOs())/float64(len(d.Node))),
		"runtime.gc_cpu_frac":                ratio(traced.gcCPU, traced.cpu),
		"runtime.gc_cycles_per_1k_stmt":      ratio(1000*float64(traced.gcCycles), st),
		"runtime.alloc_bytes_per_stmt":       ratio(float64(traced.allocBytes), st),
		"trace.overhead_frac":                1 - ratio(float64(traced.writes)/traced.elapsed.Seconds(), float64(untraced.writes)/untraced.elapsed.Seconds()),
	}
	for _, stage := range maintainStages {
		sc := d.Pipeline.Stages[stage]
		vals["maintain."+stage+".execs_per_stmt"] = ratio(float64(sc.Executions), st)
		vals["maintain."+stage+".pages_per_stmt"] = ratio(float64(sc.Pages), st)
		vals["maintain."+stage+".msgs_per_stmt"] = ratio(float64(sc.Messages), st)
	}
	for _, c := range storageCounts {
		vals["storage."+c.name+"_per_stmt"] = ratio(float64(c.get(counts)), st)
	}
	// A call the workload never makes reads 0, and so does a percentile
	// the traced window has too few samples for: it is not measured, and
	// no lower percentile stands in for it.
	pct := func(name string, samples []time.Duration, p float64, unit time.Duration) {
		vals[name] = 0
		if len(samples) == 0 {
			return
		}
		v, err := percentile(durations(samples, unit), p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s not measured: %v\n", name, err)
			return
		}
		vals[name] = v
	}
	pct("cluster.asyncq.lag_p99_ms", traced.lags, 0.99, time.Millisecond)
	for _, k := range []kind{kInsert, kDelete, kUpdate, kRead} {
		samples := durationsOf(traced.logs, "cluster."+kindNames[k])
		pct("cluster."+kindNames[k]+"_p50_us", samples, 0.50, time.Microsecond)
		pct("cluster."+kindNames[k]+"_p99_us", samples, 0.99, time.Microsecond)
	}
	out := map[string]value{}
	for _, m := range layerMetrics {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", m.name)
		}
		out[m.name] = value{v, m.unit}
	}
	return out, nil
}
