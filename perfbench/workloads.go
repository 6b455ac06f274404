package main

import (
	"fmt"
	"math/rand"
	"strings"

	"joinview"
	"joinview/internal/catalog"
	"joinview/internal/experiments"
	"joinview/internal/maintain"
	"joinview/internal/types"
	tpcrgen "joinview/internal/workload"
)

// kind classifies one generated operation.
type kind uint8

const (
	kInsert kind = iota
	kDelete
	kUpdate
	kRead
	nKinds
)

var kindNames = [nKinds]string{"insert", "delete", "update", "read"}

// op is one generated operation. The program receives only what is in
// it: SQL text, or a table with tuples or a predicate, or a view name.
type op struct {
	kind  kind
	sql   string // statement text (SQL workloads); empty for typed calls
	table string
	rows  []types.Tuple // inserted tuples (the typed form of an SQL insert)
	pred  joinview.Expr // typed delete
	view  string        // read target
	// want is how many rows the statement must affect; a DML statement
	// that reports another count fails the correctness gate.
	want int
	// key identifies the rows the statement adds or removes in the
	// generator's model of its session's own data.
	key int64
}

// stream generates one session's operations from its seed. Sessions own
// disjoint key ranges, so what a session generates never depends on how
// its statements interleave with another session's.
type stream interface {
	// next returns the session's next operation without changing the
	// model; applied records that op succeeded.
	next() op
	applied(op)
	// net is the change in each base table's row count the applied
	// operations made.
	net() map[string]int
}

// scale sizes a workload: full for measurement, tiny for the self-test.
type scale struct {
	customers int // TPC-R customers; orders are 10× and lineitems 40× this
	batch     int // bulk-durable tuples per statement
	residents int // manyviews-async customers loaded before the stream
}

var (
	fullScale = scale{customers: 1500, batch: 400, residents: 1024}
	tinyScale = scale{customers: 150, batch: 40, residents: 64}
)

// workload is one seeded statement mix over one cluster configuration.
type workload struct {
	name, why string
	sessions  int
	options   joinview.Options
	// load creates the schema and data on an empty database and returns
	// each base table's loaded row count.
	load func(db *joinview.DB, sz scale) (map[string]int, error)
	// newStream returns session s's generator.
	newStream func(seed int64, s int, sz scale) stream
	// dml lists the (table, op) maintenance plans the workload's
	// statements compile, for the plan-compilation probe.
	dml []planKey
}

type planKey struct {
	table string
	op    maintain.Op
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// workloads are the benchmark's three statement mixes; each stresses a
// different set of layers (see layerMetrics for the mapping).
var workloads = []*workload{
	{
		name:     "oltp-tcp",
		why:      "single-tuple SQL on TCP with MVCC: per-statement fixed costs (parse, plan cache, locks, publish, gob envelopes, victim scans) dominate",
		sessions: 2,
		options:  joinview.Options{Nodes: 8, UseTCP: true},
		load:     loadOLTP,
		newStream: func(seed int64, s int, sz scale) stream {
			return &oltpStream{rng: sessionRand(seed, s), s: s, sessions: 2, customers: sz.customers,
				nextKey: sessionKeyBase(s), netRows: map[string]int{}}
		},
		dml: []planKey{{"orders", maintain.OpInsert}, {"orders", maintain.OpDelete},
			{"customer", maintain.OpInsert}, {"customer", maintain.OpDelete}},
	},
	{
		name:     "bulk-durable",
		why:      "multi-hundred-tuple typed batches, durable and 2-way replicated on channels: storage inserts, WAL, 2PC and mirroring dominate",
		sessions: 2,
		// CheckpointEvery counts redo records per node. A statement logs
		// about 25 per node, so a run of 1,000+ statements checkpoints
		// every node several times and the log stays truncated.
		options: joinview.Options{Nodes: 8, UseChannels: true, Durability: true,
			CheckpointEvery: 4000, ReplicationFactor: 2},
		load: loadBulk,
		newStream: func(seed int64, s int, sz scale) stream {
			return &bulkStream{rng: sessionRand(seed, s), s: s, sessions: 2, customers: sz.customers,
				batch: sz.batch, nextKey: sessionKeyBase(s), netRows: map[string]int{}}
		},
		dml: []planKey{{"orders", maintain.OpInsert}, {"orders", maintain.OpDelete}},
	},
	{
		name:     "manyviews-async",
		why:      "20 views sharing one join, epoch-batched async maintenance on the direct transport: queue compaction, shared DAG and flushes dominate",
		sessions: 1,
		options:  joinview.Options{Nodes: 8, AsyncMaintenance: true, EpochSize: 64},
		load:     loadManyViews,
		newStream: func(seed int64, s int, _ scale) stream {
			return &manyViewsStream{rng: sessionRand(seed, s), netRows: map[string]int{}}
		},
		dml: []planKey{{"customer", maintain.OpInsert}, {"customer", maintain.OpDelete}},
	},
}

// sessionRand derives one session's generator from the workload seed.
func sessionRand(seed int64, s int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(s) + 1))
}

// sessionKeyBase puts each session's new orderkeys in a range of its own,
// above every loaded key.
func sessionKeyBase(s int) int64 { return int64(s+1) * 100_000_000 }

// ownCustomer picks one of session s's customers: custkeys ≡ s mod
// sessions, so sessions never touch each other's join partners.
func ownCustomer(rng *rand.Rand, s, sessions, customers int) int64 {
	return int64(s + sessions*rng.Intn(customers/sessions))
}

func price(rng *rand.Rand) float64 { return float64(rng.Intn(1_000_000)) / 100 }

// tpcr loads the paper's Table 1 relations at sz (orders and lineitems in
// Table 1's ratios) and returns their row counts.
func tpcr(db *joinview.DB, sz scale) (map[string]int, error) {
	spec := tpcrgen.TPCR{Customers: sz.customers}.Defaulted()
	if err := spec.Load(db.Cluster()); err != nil {
		return nil, err
	}
	return map[string]int{"customer": spec.Customers, "orders": spec.Orders(), "lineitem": spec.Lineitems()}, nil
}

// oltpViews is the paper's JV1 once per maintenance method, as SQL DDL.
var oltpViews = []string{"naive", "auxrel", "globalindex"}

func loadOLTP(db *joinview.DB, sz scale) (map[string]int, error) {
	rows, err := tpcr(db, sz)
	if err != nil {
		return nil, err
	}
	var ddl strings.Builder
	for _, m := range oltpViews {
		fmt.Fprintf(&ddl, `create view jv_%s as
			select c.custkey, c.acctbal, o.orderkey, o.totalprice
			from customer c, orders o where c.custkey = o.custkey
			partition on c.custkey using %s;
		`, m, m)
	}
	if _, err := db.ExecScript(ddl.String()); err != nil {
		return nil, fmt.Errorf("oltp-tcp views: %w", err)
	}
	return rows, nil
}

// oltpStream: single-tuple order inserts, point deletes and updates of the
// session's own earlier orders, customer acctbal updates, and snapshot
// reads of one view, all as SQL text.
type oltpStream struct {
	rng         *rand.Rand
	s, sessions int
	customers   int
	nextKey     int64
	live        []int64 // the session's own orderkeys, in insert order
	netRows     map[string]int
}

// oltpMaxLive caps each oltp-tcp session's own live orders.
const oltpMaxLive = 256

// oltpReadView is the view the oltp-tcp readers scan.
const oltpReadView = "jv_auxrel"

func (g *oltpStream) next() op {
	r := g.rng.Float64()
	switch {
	case r < 0.40:
		return op{kind: kRead, view: oltpReadView}
	case r < 0.52 && len(g.live) > 0:
		k := g.live[g.rng.Intn(len(g.live))]
		return op{kind: kDelete, table: "orders", want: 1, key: k,
			sql: fmt.Sprintf("delete from orders where orderkey = %d", k)}
	case r < 0.64 && len(g.live) > 0:
		k := g.live[g.rng.Intn(len(g.live))]
		return op{kind: kUpdate, table: "orders", want: 1, key: k,
			sql: fmt.Sprintf("update orders set totalprice = %.2f where orderkey = %d", price(g.rng), k)}
	case r < 0.76:
		ck := ownCustomer(g.rng, g.s, g.sessions, g.customers)
		return op{kind: kUpdate, table: "customer", want: 1, key: ck,
			sql: fmt.Sprintf("update customer set acctbal = %.2f where custkey = %d", price(g.rng), ck)}
	case len(g.live) >= oltpMaxLive:
		// At the cap the insert turns into a delete of the oldest order,
		// so table sizes, and with them per-statement costs, stay steady
		// however long the run.
		k := g.live[0]
		return op{kind: kDelete, table: "orders", want: 1, key: k,
			sql: fmt.Sprintf("delete from orders where orderkey = %d", k)}
	default:
		k := g.nextKey
		g.nextKey++
		ck := ownCustomer(g.rng, g.s, g.sessions, g.customers)
		p := price(g.rng)
		return op{kind: kInsert, table: "orders", want: 1, key: k,
			sql:  fmt.Sprintf("insert into orders values (%d, %d, %.2f)", k, ck, p),
			rows: []types.Tuple{{types.Int(k), types.Int(ck), types.Float(p)}}}
	}
}

func (g *oltpStream) applied(o op) {
	switch o.kind {
	case kInsert:
		g.live = append(g.live, o.key)
		g.netRows[o.table]++
	case kDelete:
		g.live = removeKey(g.live, o.key)
		g.netRows[o.table]--
	}
}

func (g *oltpStream) net() map[string]int { return g.netRows }

func removeKey(keys []int64, k int64) []int64 {
	for i, x := range keys {
		if x == k {
			return append(keys[:i], keys[i+1:]...)
		}
	}
	return keys
}

// bulkReadView is the view the bulk-durable readers scan.
const bulkReadView = "jv_globalindex"

// bulkReadShare is the share of bulk-durable operations that read. A read
// (~0.6 ms) costs the writers little time next to a 400-row write
// (~25 ms): five-seed sets made 65, 62 and 64 statements/s at 5%, 20% and
// 50% reads. But a read that follows its session's own write races the
// other session's next write to the nodes, so with few reads the read
// median of a run lands on either side of that race (0.6-1.8 ms across
// seeds at 5% and 20%); at 50%, runs of reads land at every phase of the
// other session's write and the median holds (0.54-0.72 ms).
const bulkReadShare = 0.5

func loadBulk(db *joinview.DB, sz scale) (map[string]int, error) {
	rows, err := tpcr(db, sz)
	if err != nil {
		return nil, err
	}
	for _, m := range []catalog.Strategy{catalog.StrategyNaive, catalog.StrategyAuxRel, catalog.StrategyGlobalIndex} {
		if err := db.CreateView(jv1(m)); err != nil {
			return nil, err
		}
	}
	// The paper's 3-way JV2 (§3.3), maintained with auxiliary relations.
	if err := db.CreateView(&catalog.View{
		Name:   "jv2",
		Tables: []string{"customer", "orders", "lineitem"},
		Joins: []catalog.JoinPred{
			{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"},
			{Left: "orders", LeftCol: "orderkey", Right: "lineitem", RightCol: "orderkey"},
		},
		Out: []catalog.OutCol{
			{Table: "customer", Col: "custkey"}, {Table: "orders", Col: "orderkey"},
			{Table: "lineitem", Col: "partkey"}, {Table: "lineitem", Col: "extendedprice"},
		},
		PartitionTable: "customer", PartitionCol: "custkey",
		Strategy: catalog.StrategyAuxRel,
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// jv1 is the paper's customer ⋈ orders view maintained with method m.
func jv1(m catalog.Strategy) *catalog.View {
	return &catalog.View{
		Name:   "jv_" + m.String(),
		Tables: []string{"customer", "orders"},
		Joins:  []catalog.JoinPred{{Left: "customer", LeftCol: "custkey", Right: "orders", RightCol: "custkey"}},
		Out: []catalog.OutCol{
			{Table: "customer", Col: "custkey"}, {Table: "customer", Col: "acctbal"},
			{Table: "orders", Col: "orderkey"}, {Table: "orders", Col: "totalprice"},
		},
		PartitionTable: "customer", PartitionCol: "custkey",
		Strategy: m,
	}
}

// bulkStream alternates one batch insert of new orders with the range
// delete of that batch, with snapshot reads of one view mixed in.
type bulkStream struct {
	rng         *rand.Rand
	s, sessions int
	customers   int
	batch       int
	nextKey     int64
	live        []int64 // first orderkeys of the session's live batches
	netRows     map[string]int
}

func (g *bulkStream) next() op {
	if g.rng.Float64() < bulkReadShare {
		return op{kind: kRead, view: bulkReadView}
	}
	if len(g.live) > 0 {
		lo := g.live[0]
		hi := lo + int64(g.batch) - 1
		return op{kind: kDelete, table: "orders", want: g.batch, key: lo,
			pred: joinview.And(joinview.Gt("orderkey", types.Int(lo-1)), joinview.Lt("orderkey", types.Int(hi+1)))}
	}
	lo := g.nextKey
	g.nextKey += int64(g.batch)
	rows := make([]types.Tuple, g.batch)
	for i := range rows {
		ck := ownCustomer(g.rng, g.s, g.sessions, g.customers)
		rows[i] = types.Tuple{types.Int(lo + int64(i)), types.Int(ck), types.Float(price(g.rng))}
	}
	return op{kind: kInsert, table: "orders", rows: rows, want: g.batch, key: lo}
}

func (g *bulkStream) applied(o op) {
	switch o.kind {
	case kInsert:
		g.live = append(g.live, o.key)
		g.netRows[o.table] += o.want
	case kDelete:
		g.live = removeKey(g.live, o.key)
		g.netRows[o.table] -= o.want
	}
}

func (g *bulkStream) net() map[string]int { return g.netRows }

// manyViews is the shared-group population: 20 aggregate views over
// customer ⋈ orders that share the orders-side delta join.
const manyViews = 20

// manyViewsCustKeys is LoadManyViewsSchema's custkey domain.
const manyViewsCustKeys = 160

// manyViewsReadView groups by (custkey, acctbal): one row per customer.
const manyViewsReadView = "jv_002"

func loadManyViews(db *joinview.DB, sz scale) (map[string]int, error) {
	if err := experiments.LoadManyViewsSchema(db.Cluster(), manyViews); err != nil {
		return nil, err
	}
	// Resident customers make the read view big enough that a read is
	// real work (~0.35 ms) rather than a few microseconds of scheduling
	// noise.
	residents := make([]types.Tuple, sz.residents)
	for i := range residents {
		residents[i] = types.Tuple{types.Int(int64(i % manyViewsCustKeys)), types.Int(int64(i % 25)), types.Int(int64(i + 1))}
	}
	if err := db.Insert("customer", residents); err != nil {
		return nil, err
	}
	if err := db.Flush(); err != nil {
		return nil, err
	}
	orders, err := db.TableRows("orders")
	if err != nil {
		return nil, err
	}
	return map[string]int{"customer": len(residents), "orders": len(orders)}, nil
}

// manyViewsStream inserts single customers, deletes some of its recent
// inserts (often while they are still queued, so compaction cancels
// them), and reads one view at the watermark.
type manyViewsStream struct {
	rng     *rand.Rand
	seq     int64
	live    []int64 // acctbal of live inserted customers, unique and ascending
	custkey map[int64]int64
	netRows map[string]int
}

// manyViewsMaxLive caps the live inserted customers; at the cap the next
// write retires the oldest manyViewsRetire of them.
const (
	manyViewsMaxLive = 512
	manyViewsRetire  = 64
)

// manyViewsFirstID starts the stream's acctbal ids above every resident
// customer's.
const manyViewsFirstID = 1_000_000

// recentDeletes bounds how far back a delete reaches: only the newest
// inserts, which are likely still in the queue.
const recentDeletes = 16

func (g *manyViewsStream) next() op {
	r := g.rng.Float64()
	switch {
	case r < 0.15:
		return op{kind: kRead, view: manyViewsReadView}
	case len(g.live) >= manyViewsMaxLive:
		// Retire the oldest customers in one statement, so view sizes
		// stay steady however long the run while single-row inserts
		// remain most of the writes.
		lo, hi := g.live[0], g.live[manyViewsRetire-1]
		return op{kind: kDelete, table: "customer", want: manyViewsRetire, key: hi,
			pred: joinview.And(joinview.Gt("acctbal", types.Int(lo-1)), joinview.Lt("acctbal", types.Int(hi+1)))}
	case r < 0.40 && len(g.live) > 0:
		from := max(0, len(g.live)-recentDeletes)
		return g.delete(g.live[from+g.rng.Intn(len(g.live)-from)])
	default:
		g.seq++
		id := manyViewsFirstID + g.seq
		ck := int64(g.rng.Intn(manyViewsCustKeys))
		if g.custkey == nil {
			g.custkey = map[int64]int64{}
		}
		g.custkey[id] = ck
		return op{kind: kInsert, table: "customer", want: 1, key: id,
			rows: []types.Tuple{{types.Int(ck), types.Int(int64(g.rng.Intn(25))), types.Int(id)}}}
	}
}

func (g *manyViewsStream) delete(id int64) op {
	return op{kind: kDelete, table: "customer", want: 1, key: id,
		pred: joinview.And(joinview.Eq("custkey", types.Int(g.custkey[id])), joinview.Eq("acctbal", types.Int(id)))}
}

func (g *manyViewsStream) applied(o op) {
	switch o.kind {
	case kInsert:
		g.live = append(g.live, o.key)
		g.netRows[o.table]++
	case kDelete:
		if o.want > 1 {
			g.live = g.live[o.want:]
		} else {
			g.live = removeKey(g.live, o.key)
		}
		g.netRows[o.table] -= o.want
	}
}

func (g *manyViewsStream) net() map[string]int { return g.netRows }
