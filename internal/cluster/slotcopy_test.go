package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/maintain"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/txn"
	"joinview/internal/types"
)

// The pause structures bracket every structure the test writes: table
// pauseFirst is the first object a slot copy visits and pauseView the
// last (tables precede views; each list is in name order). No test DML
// touches either, so a copy paused on one of them does not block the
// writers, which land before (pauseFirst) or after (pauseView) every
// written structure's copy is armed.
const (
	pauseFirst = "aaa"
	pauseView  = "zzpause"
)

// pauseTransport wraps the raw delivery layer and runs hook, once, on the
// goroutine that first reads the source fragment named frag.
type pauseTransport struct {
	netsim.Transport
	frag string
	once sync.Once
	hook func()
}

func (p *pauseTransport) Call(from, to int, req any) (any, error) {
	var frag string
	switch r := req.(type) {
	case node.ScanWithRows:
		frag = r.Frag
	case node.AllRows:
		frag = r.Frag
	}
	if frag == p.frag {
		p.once.Do(p.hook)
	}
	return p.Transport.Call(from, to, req)
}

func pauseTable(name string) *catalog.Table {
	return &catalog.Table{
		Name: name,
		Schema: types.NewSchema(
			types.Column{Name: "k", Kind: types.KindInt},
			types.Column{Name: "v", Kind: types.KindInt},
		),
		PartitionCol: "k",
	}
}

// newSlotCopyCluster builds a loaded 4-node cluster on the parallel
// (channel, fault-free) path with jv1 and an aggregate view under strat,
// plus the pause structures.
func newSlotCopyCluster(t *testing.T, k int, strat catalog.Strategy) *Cluster {
	t.Helper()
	c := newReplicatedTPCR(t, Config{Nodes: 4, UseChannels: true, ReplicationFactor: k}, 8, 2, 0)
	for _, name := range []string{pauseFirst, "pa", "pb"} {
		if err := c.CreateTable(pauseTable(name)); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(name, []types.Tuple{{types.Int(1), types.Int(1)}, {types.Int(2), types.Int(2)}}); err != nil {
			t.Fatal(err)
		}
	}
	views := []*catalog.View{jv1Def("jv1", strat), aggViewDef("agg1", strat), {
		Name:   pauseView,
		Tables: []string{"pa", "pb"},
		Joins:  []catalog.JoinPred{{Left: "pa", LeftCol: "k", Right: "pb", RightCol: "k"}},
		Out:    []catalog.OutCol{{Table: "pa", Col: "k"}, {Table: "pb", Col: "v"}},

		PartitionTable: "pa", PartitionCol: "k",
		Strategy: catalog.StrategyNaive,
	}}
	for _, v := range views {
		if err := c.CreateView(v); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

var errRolledBack = errors.New("statement rolled back on purpose")

// writeEveryKind issues, through the resilient layer, every mutating
// request kind a live copy must mirror: delete statements that fail and
// roll back (RestoreRows), inserts, deletes and an update (Insert,
// DeleteRows, DeleteMatch, AggApply and the batched global-index
// requests), and a delete plus re-insert of every global-index entry
// (GIDelete, GIInsert).
func writeEveryKind(c *Cluster) error {
	all := expr.Cmp{Op: expr.GE, L: expr.Col{Name: "custkey"}, R: expr.Const{V: types.Int(0)}}
	for _, table := range []string{"orders", "customer"} {
		if err := rolledBackDelete(c, table, all); err != nil {
			return err
		}
	}
	var orders []types.Tuple
	for ok := int64(100); ok < 116; ok++ {
		orders = append(orders, ord(ok, ok%12, float64(ok)))
	}
	if err := c.Insert("customer", []types.Tuple{cust(8, 8), cust(9, 9), cust(10, 10), cust(11, 11)}); err != nil {
		return err
	}
	if err := c.Insert("orders", orders); err != nil {
		return err
	}
	eq := func(col string, v int64) expr.Expr {
		return expr.Cmp{Op: expr.EQ, L: expr.Col{Name: col}, R: expr.Const{V: types.Int(v)}}
	}
	if _, err := c.Delete("orders", eq("custkey", 2)); err != nil {
		return err
	}
	if _, err := c.Delete("customer", eq("custkey", 5)); err != nil {
		return err
	}
	if _, err := c.Update("customer", map[string]types.Value{"acctbal": types.Float(7)}, all); err != nil {
		return err
	}
	for _, tn := range c.cat.Tables() {
		for _, gi := range c.cat.GlobalIndexesFor(tn) {
			for n := 0; n < c.NumNodes(); n++ {
				resp, err := c.call(n, node.GIScan{GI: gi.Name})
				if err != nil {
					return err
				}
				sc := resp.(node.GIScanResult)
				for i, v := range sc.Vals {
					if _, err := c.call(n, node.GIDelete{GI: gi.Name, Val: v, G: sc.Gs[i]}); err != nil {
						return err
					}
					if _, err := c.call(n, node.GIInsert{GI: gi.Name, Val: v, G: sc.Gs[i]}); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// rolledBackDelete applies a delete statement in full and then fails it,
// so the statement scope undoes every applied request.
func rolledBackDelete(c *Cluster, table string, pred expr.Expr) error {
	h := c.lockStmt(table)
	defer h.Release()
	mp, err := c.planFor(table, maintain.OpDelete)
	if err != nil {
		return err
	}
	err = c.runStmt(func(tx *txn.Txn) error {
		victims, locs, err := c.findVictims(table, pred)
		if err != nil {
			return err
		}
		if len(victims) == 0 {
			return fmt.Errorf("no %s rows to delete", table)
		}
		if err := c.execPlan(tx, mp, victims, locs); err != nil {
			return err
		}
		return errRolledBack
	})
	if !errors.Is(err, errRolledBack) {
		return fmt.Errorf("rolled-back delete on %s: %v", table, err)
	}
	return nil
}

// snapshotRows reads every table and view the test writes.
func snapshotRows(c *Cluster) (map[string][]types.Tuple, error) {
	out := map[string][]types.Tuple{}
	for _, name := range []string{"customer", "orders"} {
		rows, err := c.TableRows(name)
		if err != nil {
			return nil, err
		}
		out[name] = rows
	}
	for _, name := range []string{"jv1", "agg1"} {
		rows, err := c.ViewRows(name)
		if err != nil {
			return nil, err
		}
		out[name] = rows
	}
	return out, nil
}

// TestWritesDuringSlotCopy lands DML of every mutating request kind after
// every written structure's snapshot copy is armed and before the copy
// commits: the migration's cutover (AddNode at RF=1) and the repair's map
// install (ReplicateRepair at RF=2). The copies must end up holding
// exactly what the sources hold, for naive, auxiliary-relation and
// global-index views.
func TestWritesDuringSlotCopy(t *testing.T) {
	testSlotCopyWrites(t, pauseView)
}

// TestWritesBeforeSlotCopy lands the same DML before any written
// structure's copy: the snapshot picks the writes up, so the live fan-out
// must not also deliver them to a copy target. (A repair used to mirror
// them into followers' shadows it had just wiped for recopy, which either
// failed and evicted the follower or left duplicate rows.)
func TestWritesBeforeSlotCopy(t *testing.T) {
	testSlotCopyWrites(t, pauseFirst)
}

func testSlotCopyWrites(t *testing.T, pause string) {
	for _, policy := range []string{"migration", "repair"} {
		for _, strat := range allStrategies {
			policy, strat := policy, strat
			t.Run(policy+"/"+strat.String(), func(t *testing.T) {
				k := 1
				if policy == "repair" {
					k = 2
				}
				c := newSlotCopyCluster(t, k, strat)
				// The hook runs on this goroutine, inside AddNode or
				// ReplicateRepair.
				var want map[string][]types.Tuple
				fired := false
				pt := &pauseTransport{Transport: c.inner, frag: pause}
				pt.hook = func() {
					fired = true
					top := c.Topology()
					switch {
					case policy == "migration" && (top.InFlight == nil || top.InFlight.Phase != "copy:"+pause):
						t.Errorf("paused outside the copy of %s: %+v", pause, top.InFlight)
					case policy == "repair" && (top.Repair == nil || pause == pauseFirst && top.Repair.ObjectsDone != 0 ||
						pause == pauseView && top.Repair.ObjectsDone != top.Repair.ObjectsTotal-1):
						t.Errorf("paused outside the copy of %s: %+v", pause, top.Repair)
					}
					if err := writeEveryKind(c); err != nil {
						t.Errorf("DML during copy: %v", err)
						return
					}
					var err error
					if want, err = snapshotRows(c); err != nil {
						t.Errorf("reading during copy: %v", err)
					}
				}
				c.inner = pt

				if policy == "migration" {
					if _, err := c.AddNode(); err != nil {
						t.Fatalf("AddNode: %v", err)
					}
					if st, _ := c.LastMigration(); pause == pauseView && st.CatchupReplayed == 0 {
						t.Errorf("no mirrored write replayed: %+v", st)
					}
				} else {
					if err := c.MarkNodeDown(1); err != nil {
						t.Fatal(err)
					}
					if err := c.ReplicateRepair(); err != nil {
						t.Fatalf("ReplicateRepair: %v", err)
					}
				}
				if !fired || want == nil {
					t.Fatalf("DML never landed mid-copy (fired=%v)", fired)
				}
				got, err := snapshotRows(c)
				if err != nil {
					t.Fatal(err)
				}
				for name, rows := range want {
					assertBagEqual(t, name, got[name], rows)
				}
				for _, v := range []string{"jv1", "agg1", pauseView} {
					if err := c.CheckViewConsistency(v); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.CheckAllStructures(); err != nil {
					t.Fatal(err)
				}
				if k > 1 {
					// Every follower is live once the repair revives node 1,
					// so no mirror may fail: a mirrored write into a shadow
					// not yet recopied would evict its follower.
					if ev := c.Metrics().Repl.Evictions; ev != 0 {
						t.Errorf("%d followers evicted during the repair", ev)
					}
					checkReplicaConsistency(t, c)
				}
			})
		}
	}
}
