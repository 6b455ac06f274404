package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"joinview"
	"joinview/internal/cluster"
	"joinview/internal/sql"
)

// bench is one opened, loaded and warmed database with its sessions.
type bench struct {
	w       *workload
	db      *joinview.DB
	c       *cluster.Cluster
	base    map[string]int // loaded rows per base table
	streams []stream
	sqls    []*sql.Session
	// wrong counts DML statements that affected another row count than
	// generated, over the bench's life; any fails the correctness gate.
	wrong atomic.Int64
}

// warmRound is how many operations each session runs per warm-up round.
const warmRound = 16

// setup opens the cluster, loads the data, creates the views and warms
// up until a round of the workload's own statements adds no plan to the
// plan cache: every (table, op) pipeline the stream uses is compiled.
// Later misses are recompiles after statistics drift, which the run
// measures.
func setup(w *workload, seed int64, sz scale) (*bench, error) {
	db, err := joinview.Open(w.options)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	b := &bench{w: w, db: db, c: db.Cluster()}
	if b.base, err = w.load(db, sz); err != nil {
		db.Close()
		return nil, fmt.Errorf("load %s: %w", w.name, err)
	}
	for s := 0; s < w.sessions; s++ {
		b.streams = append(b.streams, w.newStream(seed, s, sz))
		b.sqls = append(b.sqls, db.NewSession())
	}
	if err := b.warmUp(); err != nil {
		db.Close()
		return nil, fmt.Errorf("warm-up %s: %w", w.name, err)
	}
	return b, nil
}

func (b *bench) warmUp() error {
	for round := 0; ; round++ {
		before := b.c.PlanCacheLen()
		for s := range b.streams {
			for i := 0; i < warmRound; i++ {
				if _, err := b.do(s, b.streams[s].next(), nil, 0); err != nil {
					return err
				}
			}
		}
		if err := b.drain(); err != nil {
			return err
		}
		if round > 0 && b.c.PlanCacheLen() == before {
			return nil
		}
	}
}

// drain applies every deferred delta (async maintenance only).
func (b *bench) drain() error {
	if !b.w.options.AsyncMaintenance {
		return nil
	}
	return b.db.Flush()
}

// do runs one operation, checks its row count and updates the session's
// model. tr, when set, records a span around every public call.
func (b *bench) do(s int, o op, tr *spanLog, stmt uint64) (time.Duration, error) {
	root := tr.begin("stmt."+kindNames[o.kind], 0, stmt)
	n, lag, err := b.call(s, o, tr, tr.id(root), stmt)
	tr.end(root)
	if err != nil {
		return lag, err
	}
	if o.kind != kRead {
		if n != o.want {
			b.wrong.Add(1)
			return lag, fmt.Errorf("%s on %s affected %d rows, generated %d", kindNames[o.kind], o.table, n, o.want)
		}
		b.streams[s].applied(o)
	}
	return lag, nil
}

// call makes the operation's public call(s) and returns the affected row
// count and, for reads, the watermark lag.
func (b *bench) call(s int, o op, tr *spanLog, parent, stmt uint64) (int, time.Duration, error) {
	layer := "cluster." + kindNames[o.kind]
	switch {
	case o.kind == kRead:
		h := tr.begin(layer, parent, stmt)
		rows, wm, err := b.c.ReadViewRows(o.view, cluster.ReadAtWatermark)
		tr.end(h)
		return len(rows), wm.Lag, err
	case o.sql != "":
		h := tr.begin("sql.parse", parent, stmt)
		st, err := sql.Parse(o.sql)
		tr.end(h)
		if err != nil {
			return 0, 0, err
		}
		h = tr.begin(layer, parent, stmt)
		res, err := b.sqls[s].ExecStmt(st)
		tr.end(h)
		if err != nil {
			return 0, 0, err
		}
		return res.Count, 0, nil
	case o.kind == kInsert:
		h := tr.begin(layer, parent, stmt)
		err := b.c.Insert(o.table, o.rows)
		tr.end(h)
		return len(o.rows), 0, err
	case o.kind == kDelete:
		h := tr.begin(layer, parent, stmt)
		gone, err := b.c.Delete(o.table, o.pred)
		tr.end(h)
		return len(gone), 0, err
	}
	return 0, 0, fmt.Errorf("no call for a typed %s", kindNames[o.kind])
}

// window is one timed closed-loop run of every session.
type window struct {
	elapsed        time.Duration
	attempted      int
	failed         int
	writes         int // acknowledged DML statements
	lat            [nKinds][]time.Duration
	lags           []time.Duration // watermark lag seen by each read
	pendingAtDrain int             // queued statements when the loop stopped
	metrics        cluster.Metrics // Metrics() change over the window
	mallocs        uint64
	allocBytes     uint64
	gcCycles       uint32
	gcCPU, cpu     float64 // GC and total CPU seconds
	liveHeapMiB    []float64
	logs           []*spanLog
}

type sessionOut struct {
	attempted, failed int
	lat               [nKinds][]time.Duration
	lags              []time.Duration
}

// run drives every session in a closed loop until the deadline (or, when
// limit > 0, for limit operations each), then drains the async queue
// inside the window so deferred work is not hidden. label names the
// window in the one-line summary written to standard error.
func (b *bench) run(label string, d time.Duration, limit int, traced bool) (*window, error) {
	win := &window{}
	outs := make([]sessionOut, len(b.streams))
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPU()
	m0 := b.c.Metrics()
	stopHeap, heapDone := make(chan struct{}), make(chan []float64)
	go sampleLiveHeap(stopHeap, heapDone)
	stopSampling := func() []float64 {
		close(stopHeap)
		return <-heapDone
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for s := range b.streams {
		var tr *spanLog
		if traced {
			tr = newSpanLog(start, s)
			win.logs = append(win.logs, tr)
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			b.session(s, deadline, limit, &outs[s], tr)
		}(s)
	}
	wg.Wait()
	if b.w.options.AsyncMaintenance {
		win.pendingAtDrain = b.db.Watermark().Pending
		var fl *spanLog
		if traced {
			fl = newSpanLog(start, len(b.streams))
			win.logs = append(win.logs, fl)
		}
		h := fl.begin("cluster.flush", 0, 0)
		err := b.db.Flush()
		fl.end(h)
		if err != nil {
			stopSampling()
			return nil, fmt.Errorf("final flush: %w", err)
		}
	}
	win.elapsed = time.Since(start)
	win.liveHeapMiB = stopSampling()
	win.metrics = b.c.Metrics().Sub(m0)
	runtime.ReadMemStats(&ms1)
	gc1, cpu1 := gcCPU()
	win.mallocs = ms1.Mallocs - ms0.Mallocs
	win.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	win.gcCycles = ms1.NumGC - ms0.NumGC
	win.gcCPU, win.cpu = gc1-gc0, cpu1-cpu0
	for _, o := range outs {
		win.attempted += o.attempted
		win.failed += o.failed
		for k := range o.lat {
			win.lat[k] = append(win.lat[k], o.lat[k]...)
			if kind(k) != kRead {
				win.writes += len(o.lat[k])
			}
		}
		win.lags = append(win.lags, o.lags...)
	}
	fmt.Fprintf(os.Stderr, "%s window: %.2fs, %d operations:", label, win.elapsed.Seconds(), win.attempted)
	for k := range win.lat {
		fmt.Fprintf(os.Stderr, " %s %d", kindNames[k], len(win.lat[k]))
	}
	fmt.Fprintln(os.Stderr)
	return win, nil
}

// session is one closed-loop client. tr, when set, records spans and each
// statement's Metrics() change.
func (b *bench) session(s int, deadline time.Time, limit int, out *sessionOut, tr *spanLog) {
	for i := 0; limit > 0 && i < limit || limit == 0 && time.Now().Before(deadline); i++ {
		o := b.streams[s].next()
		stmt := uint64(s+1)<<40 | uint64(i+1)
		var m0 cluster.Metrics
		if tr != nil {
			m0 = b.c.Metrics()
		}
		t0 := time.Now()
		lag, err := b.do(s, o, tr, stmt)
		lat := time.Since(t0)
		out.attempted++
		if err != nil {
			out.failed++
			continue
		}
		out.lat[o.kind] = append(out.lat[o.kind], lat)
		switch {
		case o.kind == kRead && b.w.options.AsyncMaintenance:
			out.lags = append(out.lags, lag)
		case o.kind != kRead && tr != nil:
			d := b.c.Metrics().Sub(m0)
			tr.deltas = append(tr.deltas, stmtDelta{Stmt: stmt, TWIOs: d.TotalIOs(), MaxNode: d.MaxNodeIOs(),
				Messages: d.Net.Messages, Envelopes: d.Net.Envelopes})
		}
	}
}

// sampleLiveHeap records, every heapPeriod until stop closes, the heap
// the last GC cycle found live, then sends the samples on done.
func sampleLiveHeap(stop <-chan struct{}, done chan<- []float64) {
	const heapPeriod = 100 * time.Millisecond
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func(out []float64) []float64 {
		metrics.Read(live)
		return append(out, float64(live[0].Value.Uint64())/(1<<20))
	}
	samples := read(nil)
	t := time.NewTicker(heapPeriod)
	defer t.Stop()
	for {
		select {
		case <-stop:
			done <- read(samples)
			return
		case <-t.C:
			samples = read(samples)
		}
	}
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// gcCPU returns the process's GC and total CPU seconds so far.
func gcCPU() (gc, total float64) {
	metrics.Read(gcSamples)
	return gcSamples[0].Value.Float64(), gcSamples[1].Value.Float64()
}

// gate is the correctness check at the end of every run: an empty queue,
// every view equal to its recomputed join, every auxiliary structure
// consistent, each base table holding exactly the generated net rows,
// and every statement having affected the rows it was generated for.
func (b *bench) gate() error {
	if err := b.drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if b.w.options.AsyncMaintenance {
		if wm := b.db.Watermark(); wm.Pending != 0 {
			return fmt.Errorf("%d statements still pending after the drain", wm.Pending)
		}
	}
	if n := b.wrong.Load(); n > 0 {
		return fmt.Errorf("%d statements affected another row count than generated", n)
	}
	for _, v := range b.c.Catalog().Views() {
		if err := b.db.CheckViewConsistency(v); err != nil {
			return err
		}
	}
	if err := b.db.CheckAllStructures(); err != nil {
		return err
	}
	for table, n := range b.base {
		want := n
		for _, st := range b.streams {
			want += st.net()[table]
		}
		rows, err := b.db.TableRows(table)
		if err != nil {
			return err
		}
		if len(rows) != want {
			return fmt.Errorf("table %s holds %d rows, the generated stream leaves %d", table, len(rows), want)
		}
	}
	return nil
}
