package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/fault"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/types"
)

func eqOn(col string, v types.Value) expr.Expr {
	return expr.Cmp{Op: expr.EQ, L: expr.Col{Name: col}, R: expr.Const{V: v}}
}

// randVictimPred draws a predicate over orders: pinning forms (orderkey =
// const in either operand order, alone or inside a conjunction, NULL and
// cross-kind constants) and forms that must broadcast (Or, Not, <>,
// ranges, a float constant, another column).
func randVictimPred(rng *rand.Rand, maxKey int64) expr.Expr {
	k := types.Int(1 + rng.Int63n(maxKey))
	ck := expr.Cmp{Op: expr.GE, L: expr.Col{Name: "custkey"}, R: expr.Const{V: types.Int(rng.Int63n(8))}}
	switch rng.Intn(12) {
	case 0:
		return eqOn("orderkey", k)
	case 1:
		return expr.Cmp{Op: expr.EQ, L: expr.Const{V: k}, R: expr.Col{Name: "orderkey"}}
	case 2:
		return expr.And{Terms: []expr.Expr{ck, eqOn("orderkey", k)}}
	case 3:
		return expr.And{Terms: []expr.Expr{expr.And{Terms: []expr.Expr{eqOn("orderkey", k), ck}}}}
	case 4:
		return eqOn("orderkey", types.Null())
	case 5:
		return eqOn("orderkey", types.String(fmt.Sprint(k.I)))
	case 6:
		return eqOn("orderkey", types.Float(float64(k.I)))
	case 7:
		return expr.Or{Terms: []expr.Expr{eqOn("orderkey", k), eqOn("orderkey", types.Int(k.I+1))}}
	case 8:
		return expr.Not{E: eqOn("orderkey", k)}
	case 9:
		return expr.Cmp{Op: expr.NE, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: k}}
	case 10:
		return expr.And{Terms: []expr.Expr{
			expr.Cmp{Op: expr.GE, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: k}},
			expr.Cmp{Op: expr.LT, L: expr.Col{Name: "orderkey"}, R: expr.Const{V: types.Int(k.I + 3)}},
		}}
	default:
		return eqOn("custkey", types.Int(rng.Int63n(8)))
	}
}

// locKeys renders located victims as sorted node/row/tuple keys.
func locKeys(locs []located) []string {
	out := make([]string, len(locs))
	for i, l := range locs {
		out[i] = fmt.Sprintf("%d/%d/%v", l.node, l.row, l.tuple)
	}
	sort.Strings(out)
	return out
}

// broadcastVictims is the unrouted victim location: every node scans.
func broadcastVictims(c *Cluster, table string, pred expr.Expr) ([]string, error) {
	resps, err := c.tr.Broadcast(netsim.Coordinator, node.FindMatching{Frag: table, Pred: pred})
	if err != nil {
		return nil, err
	}
	var locs []located
	for n, r := range resps {
		rr := r.(node.RowsResult)
		for i := range rr.Rows {
			locs = append(locs, located{node: n, row: rr.Rows[i], tuple: rr.Tuples[i]})
		}
	}
	return locKeys(locs), nil
}

// sameVictims checks that routed victim location finds exactly what a
// broadcast finds, at the same nodes and row ids, and returns the count.
func sameVictims(c *Cluster, table string, pred expr.Expr) (int, error) {
	_, locs, err := c.findVictims(table, pred)
	if err != nil {
		return 0, fmt.Errorf("routed %v: %w", pred, err)
	}
	want, err := broadcastVictims(c, table, pred)
	if err != nil {
		return 0, fmt.Errorf("broadcast %v: %w", pred, err)
	}
	if got := locKeys(locs); strings.Join(got, " ") != strings.Join(want, " ") {
		return 0, fmt.Errorf("%v: routed victims %v, broadcast %v", pred, got, want)
	}
	return len(locs), nil
}

func assertSameVictims(t *testing.T, c *Cluster, table string, pred expr.Expr) int {
	t.Helper()
	n, err := sameVictims(c, table, pred)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// sortedRows reads a table's rows, or a view's, sorted.
func sortedRows(t *testing.T, c *Cluster, name string) []types.Tuple {
	t.Helper()
	read := c.TableRows
	if _, err := c.cat.View(name); err == nil {
		read = c.ViewRows
	}
	rows, err := read(name)
	if err != nil {
		t.Fatal(err)
	}
	sortTuples(rows)
	return rows
}

// TestRoutedVictimsMatchBroadcast drives the same random delete stream
// into two identical clusters, one with the predicates as drawn and one
// with each wrapped in a single-term Or (same meaning, never routed), and
// requires identical victims, deleted tuples, table and view states.
func TestRoutedVictimsMatchBroadcast(t *testing.T) {
	for _, strat := range allStrategies {
		t.Run(strat.String(), func(t *testing.T) {
			routed := newTPCR(t, 4, 12, 2, 0)
			bcast := newTPCR(t, 4, 12, 2, 0)
			for _, c := range []*Cluster{routed, bcast} {
				if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(int64(strat) + 41))
			for i := 0; i < 60; i++ {
				pred := randVictimPred(rng, 26)
				assertSameVictims(t, routed, "orders", pred)
				got, err := routed.Delete("orders", pred)
				if err != nil {
					t.Fatalf("routed delete %v: %v", pred, err)
				}
				want, err := bcast.Delete("orders", expr.Or{Terms: []expr.Expr{pred}})
				if err != nil {
					t.Fatalf("broadcast delete %v: %v", pred, err)
				}
				sortTuples(got)
				sortTuples(want)
				if !tuplesEqual(got, want) {
					t.Fatalf("%v deleted %v routed, %v broadcast", pred, got, want)
				}
				// Put the victims back (in both) so the table stays populated.
				if len(got) > 0 && i%3 != 0 {
					for _, c := range []*Cluster{routed, bcast} {
						if err := c.Insert("orders", got); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, name := range []string{"orders", "jv1"} {
					a, b := sortedRows(t, routed, name), sortedRows(t, bcast, name)
					if !tuplesEqual(a, b) {
						t.Fatalf("after %v: %s differs\nrouted    %v\nbroadcast %v", pred, name, a, b)
					}
				}
			}
			if err := routed.CheckViewConsistency("jv1"); err != nil {
				t.Fatal(err)
			}
			if err := routed.CheckAllStructures(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPinnedDeleteScansOneNode: a pinned predicate sends one FindMatching
// envelope; any other predicate sends one per node.
func TestPinnedDeleteScansOneNode(t *testing.T) {
	c := newTPCR(t, 4, 12, 2, 0)
	for _, tc := range []struct {
		pred expr.Expr
		want int64
	}{
		{eqOn("orderkey", types.Int(5)), 1},
		{expr.Cmp{Op: expr.EQ, L: expr.Const{V: types.Int(5)}, R: expr.Col{Name: "orderkey"}}, 1},
		{expr.And{Terms: []expr.Expr{eqOn("custkey", types.Int(2)), eqOn("orderkey", types.Int(5))}}, 1},
		{eqOn("orderkey", types.Null()), 1},
		{eqOn("orderkey", types.Float(5)), 4},
		{eqOn("custkey", types.Int(2)), 4},
		{expr.Or{Terms: []expr.Expr{eqOn("orderkey", types.Int(5))}}, 4},
		{expr.Not{E: eqOn("orderkey", types.Int(5))}, 4},
	} {
		before := c.Transport().Stats().Envelopes
		if _, _, err := c.findVictims("orders", tc.pred); err != nil {
			t.Fatalf("%v: %v", tc.pred, err)
		}
		if got := c.Transport().Stats().Envelopes - before; got != tc.want {
			t.Errorf("%v: %d FindMatching envelopes, want %d", tc.pred, got, tc.want)
		}
	}
	// And through the public path: the pinned delete finds its one row.
	got, err := c.Delete("orders", eqOn("orderkey", types.Int(5)))
	if err != nil || len(got) != 1 {
		t.Fatalf("pinned delete = %v, %v; want one row", got, err)
	}
}

// TestRoutedVictimsUnknownColumn: routing skips the other nodes' tuples,
// so an unknown column must be caught even where the routed fragment is
// empty.
func TestRoutedVictimsUnknownColumn(t *testing.T) {
	c := newTPCR(t, 4, 0, 0, 0) // empty tables
	bogus := expr.And{Terms: []expr.Expr{eqOn("orderkey", types.Int(5)), eqOn("nosuchcol", types.Int(1))}}
	if _, err := c.Delete("orders", bogus); err == nil || !strings.Contains(err.Error(), "nosuchcol") {
		t.Fatalf("delete with unknown column = %v, want unknown-column error", err)
	}
	if _, err := c.Update("orders", map[string]types.Value{"totalprice": types.Float(1)}, bogus); err == nil {
		t.Fatal("update with unknown column succeeded")
	}
}

// TestFloatPartitionColumnBroadcasts: float constants never pin — -0 and
// 0 compare equal but hash to different homes, and a stored NaN compares
// equal to every float.
func TestFloatPartitionColumnBroadcasts(t *testing.T) {
	c, err := New(Config{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.CreateTable(&catalog.Table{Name: "fz", PartitionCol: "f",
		Schema: types.NewSchema(types.Column{Name: "f", Kind: types.KindFloat}, types.Column{Name: "id", Kind: types.KindInt})}); err != nil {
		t.Fatal(err)
	}
	vals := []float64{math.Copysign(0, -1), 0, math.NaN()}
	for f := 1.0; f <= 8; f++ {
		vals = append(vals, f)
	}
	var rows []types.Tuple
	for i, f := range vals {
		rows = append(rows, types.Tuple{types.Float(f), types.Int(int64(i))})
	}
	if err := c.Insert("fz", rows); err != nil {
		t.Fatal(err)
	}
	for _, f := range vals {
		n := assertSameVictims(t, c, "fz", eqOn("f", types.Float(f)))
		if n < 2 {
			t.Fatalf("f = %v matched %d rows, want the equal rows and the NaN", f, n)
		}
	}
}

// TestRoutedVictimsDuringMigrationCopy pauses a live 4->5 expansion in
// its copy phase — every table, auxiliary relation, global index and jv1
// already copied and mirrored — and runs routed point deletes and inserts
// against it: victims must match a broadcast, and once the migration
// commits the cluster must be consistent and hold the expected rows.
func TestRoutedVictimsDuringMigrationCopy(t *testing.T) {
	for _, strat := range allStrategies {
		t.Run(strat.String(), func(t *testing.T) {
			c := newSlotCopyCluster(t, 1, strat)
			want := sortedRows(t, c, "orders")
			pt := &pauseTransport{Transport: c.inner, frag: pauseView}
			// The hook runs on this goroutine, inside AddNode.
			fired := false
			pt.hook = func() {
				fired = true
				if top := c.Topology(); top.InFlight == nil || top.InFlight.Phase != "copy:"+pauseView {
					t.Errorf("paused outside the copy of %s: %+v", pauseView, top.InFlight)
					return
				}
				for i, w := range want {
					if i%2 != 0 {
						continue
					}
					pred := eqOn("orderkey", w[0])
					if n, err := sameVictims(c, "orders", pred); err != nil || n != 1 {
						t.Errorf("mid-copy %v: %d victims, %v", pred, n, err)
						return
					}
					if got, err := c.Delete("orders", pred); err != nil || len(got) != 1 {
						t.Errorf("mid-copy delete %v = %v, %v", pred, got, err)
						return
					}
					want[i] = ord(200+w[0].I, w[0].I%8, 5)
					if err := c.Insert("orders", []types.Tuple{want[i]}); err != nil {
						t.Errorf("mid-copy insert: %v", err)
						return
					}
				}
			}
			c.inner = pt
			if _, err := c.AddNode(); err != nil {
				t.Fatalf("AddNode: %v", err)
			}
			c.inner = pt.Transport
			if !fired {
				t.Fatal("the migration never reached the pause view's copy")
			}
			assertElasticConsistent(t, c, "after migration")
			sortTuples(want)
			if got := sortedRows(t, c, "orders"); !tuplesEqual(got, want) {
				t.Fatalf("orders after migration\ngot  %v\nwant %v", got, want)
			}
			// Under the new map, routed victims still match a broadcast.
			for _, w := range want {
				assertSameVictims(t, c, "orders", eqOn("orderkey", w[0]))
			}
		})
	}
}

// TestRoutedVictimsAfterFailover: at ReplicationFactor 2, after a primary
// crashes and its slots are promoted, routed victim location finds what a
// broadcast over the survivors finds, and routed deletes keep every
// replica and view consistent.
func TestRoutedVictimsAfterFailover(t *testing.T) {
	for _, strat := range allStrategies {
		t.Run(strat.String(), func(t *testing.T) {
			inj := fault.New(fault.Config{Seed: 7})
			c := newReplicatedTPCR(t, Config{Nodes: 4, ReplicationFactor: 2, Faults: inj, RetryAttempts: 3}, 6, 2, 0)
			if err := c.CreateView(jv1Def("jv1", strat)); err != nil {
				t.Fatal(err)
			}
			inj.Crash(2)
			// The first statement to reach node 2 heals the cluster.
			for i := int64(0); i < 8; i++ {
				if err := c.Insert("orders", []types.Tuple{ord(600+i, i%6, 1)}); err != nil {
					t.Fatalf("insert after crash: %v", err)
				}
			}
			if ms := c.Metrics().Repl; ms.Failovers != 1 {
				t.Fatalf("Repl metrics = %+v, want one failover", ms)
			}
			for k := int64(1); k <= 12; k++ {
				assertSameVictims(t, c, "orders", eqOn("orderkey", types.Int(k)))
			}
			for k := int64(600); k < 608; k += 2 {
				if n := assertSameVictims(t, c, "orders", eqOn("orderkey", types.Int(k))); n != 1 {
					t.Fatalf("orderkey %d: %d victims, want 1", k, n)
				}
				if got, err := c.Delete("orders", eqOn("orderkey", types.Int(k))); err != nil || len(got) != 1 {
					t.Fatalf("delete orderkey %d after failover = %v, %v", k, got, err)
				}
			}
			if err := c.CheckViewConsistency("jv1"); err != nil {
				t.Fatal(err)
			}
			if rows := sortedRows(t, c, "orders"); len(rows) != 12+4 {
				t.Fatalf("orders has %d rows, want 16", len(rows))
			}
		})
	}
}
