package main

import (
	"fmt"
	"time"

	"joinview/internal/cluster"
	"joinview/internal/lockmgr"
	"joinview/internal/mplan"
	"joinview/internal/netsim"
	"joinview/internal/netsim/tcp"
	"joinview/internal/node"
	"joinview/internal/storage"
	"joinview/internal/types"
	"joinview/internal/wal"
)

// Probes time one layer's public function in isolation, on inputs taken
// from the workload: its catalog and statistics, its row shape and its
// statement batch size. Each reports the median over probeReps batches.

const probeReps = 15

// timeEach runs fn reps×n times and returns the median per-call time.
func timeEach(n int, fn func()) time.Duration {
	per := make([]float64, probeReps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(median(per))
}

// probeCompile times mplan.Compile of every (table, op) plan the workload
// uses, on the loaded catalog and statistics.
func probeCompile(c *cluster.Cluster, keys []planKey) (time.Duration, error) {
	var err error
	d := timeEach(20, func() {
		for _, k := range keys {
			if _, e := mplan.Compile(c.Catalog(), c.Stats(), k.table, k.op); e != nil && err == nil {
				err = e
			}
		}
	})
	return d / time.Duration(len(keys)), err
}

// sampleBatch is the rows of the first insert of a fresh copy of session
// 0's stream: what the workload's insert statements carry.
func sampleBatch(w *workload, seed int64, sz scale) []types.Tuple {
	st := w.newStream(seed, 0, sz)
	for {
		if o := st.next(); o.kind == kInsert {
			return o.rows
		}
	}
}

// probeFragmentInsert times storage.Fragment.Insert of workload rows into
// a fresh fragment of the written table's schema.
func probeFragmentInsert(c *cluster.Cluster, table string, rows []types.Tuple) (time.Duration, error) {
	t, err := c.Catalog().Table(table)
	if err != nil {
		return 0, err
	}
	const perFrag = 2000
	per := make([]float64, probeReps)
	for r := range per {
		f, err := storage.NewFragment(t.Schema, storage.Config{})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < perFrag; i++ {
			if _, err := f.Insert(rows[i%len(rows)]); err != nil {
				return 0, err
			}
		}
		per[r] = float64(time.Since(t0)) / perFrag
	}
	return time.Duration(median(per)), nil
}

// probeWAL times one statement's log append and commit force.
func probeWAL(rows []types.Tuple) time.Duration {
	l := wal.NewLog(nil, 0)
	req := node.Insert{Frag: "orders", Tuples: rows}
	return timeEach(500, func() {
		l.Append(wal.Record{Kind: wal.KindRedo, TID: 1, Req: req})
		l.Force()
		if l.Len() > 10_000 {
			l.TruncateThrough(l.LastLSN())
		}
	})
}

// probeTransport times a round trip carrying one statement's rows through
// a two-node transport whose handlers echo the rows back.
func probeTransport(tr netsim.Transport, rows []types.Tuple) (time.Duration, error) {
	req := node.Insert{Frag: "orders", Tuples: rows}
	var err error
	d := timeEach(100, func() {
		if _, e := tr.Call(0, 1, req); e != nil && err == nil {
			err = e
		}
	})
	return d, err
}

func echoHandlers() []netsim.Handler {
	h := func(req any) (any, error) {
		ins, ok := req.(node.Insert)
		if !ok {
			return nil, fmt.Errorf("echo: unexpected %T", req)
		}
		return node.RowsResult{Tuples: ins.Tuples}, nil
	}
	return []netsim.Handler{h, h}
}

func probeTCP(rows []types.Tuple) (time.Duration, error) {
	tr, err := tcp.New(echoHandlers())
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	return probeTransport(tr, rows)
}

func probeChan(rows []types.Tuple) (time.Duration, error) {
	tr := netsim.NewChan(echoHandlers())
	defer tr.Close()
	return probeTransport(tr, rows)
}

// probeCodec times the binary row codec: encode then decode, per row.
func probeCodec(rows []types.Tuple) (time.Duration, error) {
	var buf []byte
	var err error
	d := timeEach(10_000/len(rows)+1, func() {
		for _, r := range rows {
			buf = types.AppendTuple(buf[:0], r)
			if _, _, e := types.DecodeTuple(buf); e != nil && err == nil {
				err = e
			}
		}
	})
	return d / time.Duration(len(rows)), err
}

// probeLocks times acquiring and releasing the claim set a statement on
// table takes: the table exclusively, each view on it exclusively, and
// the views' other tables shared.
func probeLocks(c *cluster.Cluster, table string) time.Duration {
	claims := []lockmgr.Claim{lockmgr.X(table)}
	for _, v := range c.Catalog().ViewsOn(table) {
		claims = append(claims, lockmgr.X(v.Name))
		for _, t := range v.Tables {
			if t != table {
				claims = append(claims, lockmgr.S(t))
			}
		}
	}
	m := lockmgr.New()
	return timeEach(2000, func() {
		h := m.AcquireShared()
		h.Lock(claims...)
		h.Release()
	})
}
