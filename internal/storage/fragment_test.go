package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"joinview/internal/types"
)

func ordersSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "orderkey", Kind: types.KindInt},
		types.Column{Name: "custkey", Kind: types.KindInt},
		types.Column{Name: "totalprice", Kind: types.KindFloat},
	)
}

func orderTuple(ok, ck int64, p float64) types.Tuple {
	return types.Tuple{types.Int(ok), types.Int(ck), types.Float(p)}
}

func TestNewFragmentValidation(t *testing.T) {
	if _, err := NewFragment(ordersSchema(), Config{ClusterCol: "nope"}); err == nil {
		t.Error("unknown cluster column should fail")
	}
	f, err := NewFragment(ordersSchema(), Config{ClusterCol: "custkey"})
	if err != nil {
		t.Fatal(err)
	}
	if col, ok := f.Clustered(); !ok || col != "custkey" {
		t.Errorf("Clustered() = %q, %v", col, ok)
	}
	h, _ := NewFragment(ordersSchema(), Config{})
	if _, ok := h.Clustered(); ok {
		t.Error("heap fragment should not report clustered")
	}
}

func TestInsertGetDelete(t *testing.T) {
	f, _ := NewFragment(ordersSchema(), Config{})
	r1, err := f.Insert(orderTuple(1, 10, 99.5))
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := f.Insert(orderTuple(2, 20, 50))
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
	got, ok := f.Get(r1)
	if !ok || !got.Equal(orderTuple(1, 10, 99.5)) {
		t.Fatalf("Get(r1) = %v, %v", got, ok)
	}
	del, ok := f.Delete(r1)
	if !ok || !del.Equal(orderTuple(1, 10, 99.5)) {
		t.Fatalf("Delete = %v, %v", del, ok)
	}
	if _, ok := f.Get(r1); ok {
		t.Error("deleted row still readable")
	}
	if _, ok := f.Delete(r1); ok {
		t.Error("double delete returned true")
	}
	if _, ok := f.Get(r2); !ok {
		t.Error("surviving row unreadable")
	}
	if _, err := f.Insert(types.Tuple{types.Int(1)}); err == nil {
		t.Error("arity-violating insert should fail")
	}
}

func TestMeterCharges(t *testing.T) {
	m := &Meter{}
	f, _ := NewFragment(ordersSchema(), Config{Meter: m, PageRows: 4})
	for i := int64(0); i < 10; i++ {
		if _, err := f.Insert(orderTuple(i, i%3, 1)); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Snapshot()
	if c.Inserts != 10 {
		t.Errorf("inserts = %d, want 10", c.Inserts)
	}
	if got := c.IOs(); got != 10*CostInsert {
		t.Errorf("IOs = %d, want %d", got, 10*CostInsert)
	}
	m.Reset()
	f.Scan(func(RowID, types.Tuple) bool { return true })
	// 10 rows at 4 rows/page = 3 pages.
	if c := m.Snapshot(); c.ScanPages != 3 {
		t.Errorf("scan pages = %d, want 3", c.ScanPages)
	}
}

func TestLookupEqualClustered(t *testing.T) {
	m := &Meter{}
	f, _ := NewFragment(ordersSchema(), Config{ClusterCol: "custkey", Meter: m, PageRows: 10})
	for i := int64(0); i < 30; i++ {
		f.Insert(orderTuple(i, i%3, float64(i)))
	}
	m.Reset()
	ms, path, err := f.LookupEqual("custkey", types.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if path != AccessClustered {
		t.Fatalf("path = %v, want clustered", path)
	}
	if len(ms) != 10 {
		t.Fatalf("matches = %d, want 10", len(ms))
	}
	for _, match := range ms {
		if match.Tuple[1].I != 1 {
			t.Fatalf("wrong match %v", match.Tuple)
		}
	}
	c := m.Snapshot()
	// 10 matches fit exactly one page: 1 SEARCH, 0 FETCH.
	if c.Searches != 1 || c.Fetches != 0 {
		t.Errorf("clustered lookup charged %+v, want 1 search 0 fetch", c)
	}
}

func TestLookupEqualClusteredMultiPage(t *testing.T) {
	m := &Meter{}
	f, _ := NewFragment(ordersSchema(), Config{ClusterCol: "custkey", Meter: m, PageRows: 10})
	for i := int64(0); i < 25; i++ {
		f.Insert(orderTuple(i, 7, float64(i)))
	}
	m.Reset()
	ms, _, _ := f.LookupEqual("custkey", types.Int(7))
	if len(ms) != 25 {
		t.Fatalf("matches = %d", len(ms))
	}
	c := m.Snapshot()
	// 25 matches = 3 pages: first free, 2 extra FETCHes.
	if c.Searches != 1 || c.Fetches != 2 {
		t.Errorf("multi-page clustered lookup charged %+v", c)
	}
}

func TestLookupEqualSecondary(t *testing.T) {
	m := &Meter{}
	f, _ := NewFragment(ordersSchema(), Config{Meter: m})
	for i := int64(0); i < 20; i++ {
		f.Insert(orderTuple(i, i%4, float64(i)))
	}
	if err := f.CreateIndex("ix_cust", "custkey"); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateIndex("ix_cust", "custkey"); err == nil {
		t.Error("duplicate index name should fail")
	}
	if err := f.CreateIndex("ix_bad", "nope"); err == nil {
		t.Error("index on unknown column should fail")
	}
	if !f.HasIndexOn("custkey") || f.HasIndexOn("totalprice") {
		t.Error("HasIndexOn wrong")
	}
	m.Reset()
	ms, path, err := f.LookupEqual("custkey", types.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if path != AccessSecondary {
		t.Fatalf("path = %v, want secondary", path)
	}
	if len(ms) != 5 {
		t.Fatalf("matches = %d, want 5", len(ms))
	}
	c := m.Snapshot()
	// Non-clustered: 1 SEARCH + 1 FETCH per match.
	if c.Searches != 1 || c.Fetches != 5 {
		t.Errorf("secondary lookup charged %+v", c)
	}
}

func TestLookupEqualScanFallback(t *testing.T) {
	m := &Meter{}
	f, _ := NewFragment(ordersSchema(), Config{Meter: m, PageRows: 5})
	for i := int64(0); i < 20; i++ {
		f.Insert(orderTuple(i, i%4, float64(i)))
	}
	m.Reset()
	ms, path, err := f.LookupEqual("totalprice", types.Float(3))
	if err != nil {
		t.Fatal(err)
	}
	if path != AccessScan {
		t.Fatalf("path = %v, want scan", path)
	}
	if len(ms) != 1 {
		t.Fatalf("matches = %d", len(ms))
	}
	if c := m.Snapshot(); c.ScanPages != 4 {
		t.Errorf("scan charged %d pages, want 4", c.ScanPages)
	}
	if _, _, err := f.LookupEqual("nope", types.Int(1)); err == nil {
		t.Error("lookup on unknown column should fail")
	}
}

func TestSecondaryIndexMaintainedByMutations(t *testing.T) {
	f, _ := NewFragment(ordersSchema(), Config{})
	f.CreateIndex("ix", "custkey")
	r, _ := f.Insert(orderTuple(1, 5, 10))
	f.Insert(orderTuple(2, 5, 20))
	f.Delete(r)
	ms, _, _ := f.LookupEqual("custkey", types.Int(5))
	if len(ms) != 1 || ms[0].Tuple[0].I != 2 {
		t.Fatalf("index not maintained on delete: %v", ms)
	}
	f.Insert(orderTuple(3, 5, 30))
	ms, _, _ = f.LookupEqual("custkey", types.Int(5))
	if len(ms) != 2 {
		t.Fatalf("index not maintained on insert: %v", ms)
	}
}

func TestClusteredScanOrder(t *testing.T) {
	f, _ := NewFragment(ordersSchema(), Config{ClusterCol: "custkey"})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		f.Insert(orderTuple(int64(i), int64(rng.Intn(40)), 0))
	}
	var prev int64 = -1
	for _, tup := range f.All() {
		if tup[1].I < prev {
			t.Fatal("clustered scan not in cluster-key order")
		}
		prev = tup[1].I
	}
}

func TestFindRows(t *testing.T) {
	f, _ := NewFragment(ordersSchema(), Config{ClusterCol: "custkey"})
	f.Insert(orderTuple(1, 5, 10))
	f.Insert(orderTuple(1, 5, 10)) // exact duplicate
	f.Insert(orderTuple(2, 5, 10))
	rows, err := f.FindRows("custkey", orderTuple(1, 5, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("FindRows = %v, want 2 rows", rows)
	}
	if _, err := f.FindRows("nope", orderTuple(1, 5, 10)); err == nil {
		t.Error("FindRows with bad hint column should fail")
	}
}

// Property: contents after any insert/delete interleaving match a reference
// bag, on both layouts, and lookups agree with linear filtering.
func TestFragmentMatchesReference(t *testing.T) {
	run := func(clustered bool) func(seed int64) bool {
		return func(seed int64) bool {
			cfg := Config{}
			if clustered {
				cfg.ClusterCol = "custkey"
			}
			f, _ := NewFragment(ordersSchema(), cfg)
			f.CreateIndex("ix_ok", "orderkey")
			rng := rand.New(rand.NewSource(seed))
			live := map[RowID]types.Tuple{}
			var ids []RowID
			for op := 0; op < 400; op++ {
				if rng.Intn(3) > 0 || len(ids) == 0 {
					tup := orderTuple(int64(rng.Intn(20)), int64(rng.Intn(10)), float64(rng.Intn(5)))
					r, err := f.Insert(tup)
					if err != nil {
						return false
					}
					live[r] = tup
					ids = append(ids, r)
				} else {
					i := rng.Intn(len(ids))
					r := ids[i]
					got, ok := f.Delete(r)
					if !ok || !got.Equal(live[r]) {
						return false
					}
					delete(live, r)
					ids = append(ids[:i], ids[i+1:]...)
				}
			}
			if f.Len() != len(live) {
				return false
			}
			// Every lookup column agrees with a linear filter of live rows.
			for _, probe := range []struct {
				col string
				v   types.Value
			}{
				{"custkey", types.Int(int64(rng.Intn(10)))},
				{"orderkey", types.Int(int64(rng.Intn(20)))},
				{"totalprice", types.Float(float64(rng.Intn(5)))},
			} {
				ms, _, err := f.LookupEqual(probe.col, probe.v)
				if err != nil {
					return false
				}
				want := 0
				ci := f.Schema().MustColIndex(probe.col)
				for _, tup := range live {
					if types.Equal(tup[ci], probe.v) {
						want++
					}
				}
				if len(ms) != want {
					t.Logf("lookup %s=%v: got %d, want %d (clustered=%v)", probe.col, probe.v, len(ms), want, clustered)
					return false
				}
			}
			return true
		}
	}
	if err := quick.Check(run(false), &quick.Config{MaxCount: 15}); err != nil {
		t.Errorf("heap layout: %v", err)
	}
	if err := quick.Check(run(true), &quick.Config{MaxCount: 15}); err != nil {
		t.Errorf("clustered layout: %v", err)
	}
}

func TestGlobalRowIDRoundTrip(t *testing.T) {
	f := func(node int32, row uint64) bool {
		g := GlobalRowID{Node: node, Row: RowID(row)}
		dec, ok := DecodeGlobalRowID(EncodeGlobalRowID(g))
		return ok && dec == g
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, ok := DecodeGlobalRowID([]byte{1, 2, 3}); ok {
		t.Error("short decode should fail")
	}
}

func TestCountsArithmetic(t *testing.T) {
	a := Counts{Searches: 3, Fetches: 2, Inserts: 1, Deletes: 1, ScanPages: 4, SortPages: 5}
	b := Counts{Searches: 1, Fetches: 1, Inserts: 1, Deletes: 0, ScanPages: 2, SortPages: 1}
	sum := a.Add(b)
	if sum.Searches != 4 || sum.SortPages != 6 {
		t.Errorf("Add = %+v", sum)
	}
	diff := sum.Sub(b)
	if diff != a {
		t.Errorf("Sub = %+v, want %+v", diff, a)
	}
	// IOs: 3*1 + 2*1 + 1*2 + 1*2 + 4 + 5 = 18
	if got := a.IOs(); got != 18 {
		t.Errorf("IOs = %d, want 18", got)
	}
}

// TestUnversionedDeleteHidesRowFromSnapshots: a row deleted and restored
// by a statement whose epoch was never published, then deleted without a
// version stamp (a migration moving it away), must not reappear in a
// snapshot older than the unpublished epoch.
func TestUnversionedDeleteHidesRowFromSnapshots(t *testing.T) {
	f, _ := NewFragment(ordersSchema(), Config{})
	keep, _ := f.InsertEpoch(orderTuple(1, 10, 1), 1)
	row, _ := f.InsertEpoch(orderTuple(2, 20, 2), 1)
	img, _ := f.DeleteEpoch(row, 2)
	if err := f.InsertAtEpoch(row, img, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.DeleteEpoch(row, 0); !ok {
		t.Fatal("unversioned delete missed the row")
	}
	got := f.SnapshotAll(1)
	if len(got) != 1 || !got[0].Equal(orderTuple(1, 10, 1)) {
		t.Fatalf("snapshot at 1 = %v, want only row %d", got, keep)
	}
}
