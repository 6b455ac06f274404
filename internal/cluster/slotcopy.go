package cluster

// The slot-copy engine. The paper hash-partitions every structure it
// maintains — base fragments, auxiliary relations and global indexes on
// the join attribute, and views — so moving a hash slot (live migration)
// or giving it a new replica (re-replication, failover) is one operation
// over that fixed list of structures. This file holds its five parts;
// migrate.go and replicate.go keep only their policies: which slots move,
// the target name (a "~migN" staging fragment or the "~r" shadow), where
// mirrored writes go (the catch-up queue or synchronous delivery) and
// which map installs.
//
//	walk     slotStructs lists every structure a slot owns.
//	copy     copyObject snapshots one object's structures into the targets
//	         and arms them before its claim is released.
//	fan-out  fanOut mirrors one applied write to the copies of the slots it
//	         touched: the one place that knows how each request kind
//	         rewrites onto a copy.
//	promote  promoteSlots moves slots' rows from a copy into the main
//	         structures; reindex re-registers moved base rows in the
//	         global indexes.
//	delete   deleteMisplaced removes every row or entry that is not at its
//	         home under a map.

import (
	"fmt"
	"strings"
	"sync"

	"joinview/internal/catalog"
	"joinview/internal/hashpart"
	"joinview/internal/node"
	"joinview/internal/storage"
	"joinview/internal/types"
)

// slotStruct is one structure whose rows, or entries, are partitioned by
// hash slot and so move with it: a base table, an auxiliary relation, a
// global index or a view.
type slotStruct struct {
	name string
	// object is the table or view whose claim every writer of the
	// structure holds: a table's covers its auxiliary relations and global
	// indexes.
	object     string
	schema     *types.Schema // nil for a global index
	clusterCol string
	// partIdx locates the partition column in the structure's rows and
	// hintCol names it (the DeleteMatch lookup path). For a global index
	// they locate and name the indexed column in the base table's rows.
	partIdx       int
	hintCol       string
	gi            bool
	distClustered bool
	indexes       []catalog.Index // a base table's local indexes
}

func tableStruct(t *catalog.Table) slotStruct {
	return slotStruct{name: t.Name, object: t.Name, schema: t.Schema, clusterCol: t.ClusterCol,
		partIdx: t.Schema.MustColIndex(t.PartitionCol), hintCol: t.PartitionCol, indexes: t.Indexes}
}

func auxRelStruct(ar *catalog.AuxRel) slotStruct {
	return slotStruct{name: ar.Name, object: ar.Table, schema: ar.Schema, clusterCol: ar.PartitionCol,
		partIdx: ar.Schema.MustColIndex(ar.PartitionCol), hintCol: ar.PartitionCol}
}

func globalIndexStruct(t *catalog.Table, gi *catalog.GlobalIndex) slotStruct {
	return slotStruct{name: gi.Name, object: t.Name, gi: true, distClustered: gi.DistClustered,
		partIdx: t.Schema.MustColIndex(gi.Col), hintCol: gi.Col}
}

func viewStruct(v *catalog.View) slotStruct {
	q := v.PartitionQualified()
	return slotStruct{name: v.Name, object: v.Name, schema: v.Schema, clusterCol: q,
		partIdx: v.Schema.MustColIndex(q), hintCol: q}
}

// slotStructs walks the catalog: per base table the table, its auxiliary
// relations and its global indexes, then every view.
func (c *Cluster) slotStructs() ([]slotStruct, error) {
	var out []slotStruct
	for _, tn := range c.cat.Tables() {
		t, err := c.cat.Table(tn)
		if err != nil {
			return nil, err
		}
		out = append(out, tableStruct(t))
		for _, ar := range c.cat.AuxRelsFor(tn) {
			out = append(out, auxRelStruct(ar))
		}
		for _, gi := range c.cat.GlobalIndexesFor(tn) {
			out = append(out, globalIndexStruct(t, gi))
		}
	}
	for _, vn := range c.cat.Views() {
		v, err := c.cat.View(vn)
		if err != nil {
			return nil, err
		}
		out = append(out, viewStruct(v))
	}
	return out, nil
}

// slotStructNamed resolves one structure of the walk by name; ok is false
// for every other name (shadows, staging, query temporaries).
func (c *Cluster) slotStructNamed(name string) (slotStruct, bool) {
	if t, err := c.cat.Table(name); err == nil {
		return tableStruct(t), true
	}
	if ar, err := c.cat.AuxRel(name); err == nil {
		return auxRelStruct(ar), true
	}
	if v, err := c.cat.View(name); err == nil {
		return viewStruct(v), true
	}
	if gi, err := c.cat.GlobalIndex(name); err == nil {
		if t, err := c.cat.Table(gi.Table); err == nil {
			return globalIndexStruct(t, gi), true
		}
	}
	return slotStruct{}, false
}

// splitObjects cuts the walk into its objects: a table with its auxiliary
// relations and global indexes, or a view.
func splitObjects(structs []slotStruct) [][]slotStruct {
	var out [][]slotStruct
	for i, s := range structs {
		if i == 0 || s.object != structs[i-1].object {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], s)
	}
	return out
}

// caller delivers one engine request: a policy's metered or raw call.
type caller func(to int, req any) (any, error)

// createStruct creates s's fragment or global-index fragment named name on
// node n. Only a main fragment gets the table's local indexes.
func (c *Cluster) createStruct(call caller, n int, s slotStruct, name string) error {
	var err error
	if s.gi {
		_, err = call(n, node.CreateGlobalIndex{Name: name, DistClustered: s.distClustered})
	} else {
		_, err = call(n, node.CreateFragment{Name: name, Schema: s.schema, ClusterCol: s.clusterCol, PageRows: c.cfg.PageRows})
	}
	if err != nil || name != s.name {
		return err
	}
	for _, ix := range s.indexes {
		if _, err := call(n, node.CreateIndex{Frag: name, Name: ix.Name, Col: ix.Col}); err != nil {
			return err
		}
	}
	return nil
}

// dropReq is the request that drops a fragment, or with gi a
// global-index fragment, named name.
func dropReq(gi bool, name string) any {
	if gi {
		return node.DropGlobalIndexFrag{Name: name}
	}
	return node.DropFragment{Name: name}
}

// groupBy buckets items by the nodes dsts names for each index.
func groupBy[T any](items []T, dsts func(i int) []int) map[int][]T {
	out := map[int][]T{}
	for i, it := range items {
		for _, d := range dsts(i) {
			out[d] = append(out[d], it)
		}
	}
	return out
}

// pick returns the items at the given indexes.
func pick[T any](items []T, idx []int) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		out[j] = items[i]
	}
	return out
}

// span returns 0..n-1: node ids, or the indexes groupBy buckets for
// parallel slices.
func span(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// slotCopy is one in-flight snapshot copy of hash slots: a migration's
// moves or a repair round's new followers.
type slotCopy struct {
	// from is the map the copy reads by: a copied slot's rows live at its
	// owner there. targets lists, per copied slot, the nodes that get it.
	from    hashpart.Map
	targets map[int][]int
	// copyName names a structure's copy; call delivers the copy's
	// requests; count, when set, is told the size of every batch copied.
	copyName func(string) string
	call     caller
	count    func(rows int)

	mu    sync.Mutex
	armed map[string]bool
	done  int // objects copied and armed
}

func newSlotCopy(from hashpart.Map, targets map[int][]int, copyName func(string) string, call caller) *slotCopy {
	return &slotCopy{from: from, targets: targets, copyName: copyName, call: call, armed: map[string]bool{}}
}

// route returns the nodes that get a copy of the row or entry keyed v held
// at node at: the slot's targets, when at owns the slot.
func (sc *slotCopy) route(v types.Value, at int) []int {
	s := sc.from.Slot(v)
	if sc.from.Owner[s] != at {
		return nil
	}
	return sc.targets[s]
}

// sources lists the owners of the copied slots, ascending.
func (sc *slotCopy) sources() []int {
	set := map[int]bool{}
	for s := range sc.targets {
		set[sc.from.Owner[s]] = true
	}
	return sortedKeys(set)
}

func (sc *slotCopy) arm(obj []slotStruct) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, s := range obj {
		sc.armed[s.name] = true
	}
	sc.done++
}

func (sc *slotCopy) isArmed(name string) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.armed[name]
}

func (sc *slotCopy) progress() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.done
}

// copyObject snapshots one object's structures into their copies under a
// claim that blocks the object's writers, and arms the structures before
// releasing it: from then on the live fan-out mirrors their writes, so no
// write falls between the snapshot and the mirror.
func (c *Cluster) copyObject(sc *slotCopy, obj []slotStruct) error {
	h := c.lockRead(obj[0].object)
	defer h.Release()
	srcs := sc.sources()
	for _, s := range obj {
		for _, src := range srcs {
			if err := c.copyFrom(sc, s, src); err != nil {
				return fmt.Errorf("cluster: copying %q from node %d: %w", s.name, src, err)
			}
		}
	}
	sc.arm(obj)
	return nil
}

// copyFrom ships the copied slots' share of one structure at node src to
// the copies at their target nodes, one batch per target.
func (c *Cluster) copyFrom(sc *slotCopy, s slotStruct, src int) error {
	target := sc.copyName(s.name)
	send := func(d int, req any, n int) error {
		if _, err := sc.call(d, req); err != nil {
			return err
		}
		if sc.count != nil {
			sc.count(n)
		}
		return nil
	}
	if s.gi {
		resp, err := sc.call(src, node.GIScan{GI: s.name})
		if err != nil {
			return err
		}
		r := resp.(node.GIScanResult)
		by := groupBy(span(len(r.Vals)), func(i int) []int { return sc.route(r.Vals[i], src) })
		for _, d := range sortedKeys(by) {
			if err := send(d, node.GIInsertBatch{GI: target, Vals: pick(r.Vals, by[d]), Gs: pick(r.Gs, by[d])}, len(by[d])); err != nil {
				return err
			}
		}
		return nil
	}
	resp, err := sc.call(src, node.ScanWithRows{Frag: s.name})
	if err != nil {
		return err
	}
	rows := resp.(node.RowsResult).Tuples
	by := groupBy(rows, func(i int) []int { return sc.route(rows[i][s.partIdx], src) })
	for _, d := range sortedKeys(by) {
		if err := send(d, node.Insert{Frag: target, Tuples: by[d], Unmetered: true}, len(by[d])); err != nil {
			return err
		}
	}
	return nil
}

// copySink is one policy's side of the live fan-out for one written
// structure.
type copySink interface {
	// targets lists the nodes whose copy must also see a write of the row
	// or entry keyed v applied at node at.
	targets(v types.Value, at int) []int
	// copyName names the copy of a structure.
	copyName(name string) string
	// send delivers one mirrored request carrying n rows or entries.
	send(dst int, req any, n int)
	// unmetered reports copies that take inserts unmetered, like the
	// snapshot copy; otherwise a mirrored insert keeps the original's
	// metering.
	unmetered() bool
}

// copyPolicy is a slot-copy policy's side of the live fan-out.
type copyPolicy interface {
	// sinkFor returns the sink for writes to the named structure, or nil
	// when the policy copies nothing of it.
	sinkFor(name string) copySink
}

// fanOut mirrors one applied mutating request to the copies of the slots
// it touched, as the active policy directs.
func (c *Cluster) fanOut(at int, wreq, resp any, policy copyPolicy) {
	if s, ok := wreq.(node.Seq); ok {
		wreq = s.Req
	}
	f := fanout{c: c, at: at, policy: policy}
	switch r := wreq.(type) {
	case node.Insert:
		by := f.rows(r.Frag, r.Tuples)
		for _, d := range sortedKeys(by) {
			f.sink.send(d, node.Insert{Frag: f.target, Tuples: by[d], Unmetered: r.Unmetered || f.sink.unmetered()}, len(by[d]))
		}
	case node.RestoreRows:
		// The copy never held the original row ids: a plain insert.
		by := f.rows(r.Frag, r.Tuples)
		for _, d := range sortedKeys(by) {
			f.sink.send(d, node.Insert{Frag: f.target, Tuples: by[d], Unmetered: true}, len(by[d]))
		}
	case node.DeleteRows:
		f.deleteImages(r.Frag, resp)
	case node.DeleteMatch:
		f.deleteImages(r.Frag, resp)
	case node.AggApply:
		// The view's partition column is a group column, so every key
		// holds it.
		by := f.keyed(r.Frag, len(r.Keys), func(i int) types.Value { return r.Keys[i][f.s.partIdx] })
		for _, d := range sortedKeys(by) {
			f.sink.send(d, node.AggApply{
				Frag: f.target, HintCol: r.HintCol, GroupLen: r.GroupLen, CountPos: r.CountPos,
				Keys: pick(r.Keys, by[d]), Deltas: pick(r.Deltas, by[d]),
			}, len(by[d]))
		}
	case node.GIInsert:
		f.entries(r.GI, []types.Value{r.Val}, []storage.GlobalRowID{r.G}, true, true)
	case node.GIDelete:
		f.entries(r.GI, []types.Value{r.Val}, []storage.GlobalRowID{r.G}, false, true)
	case node.GIInsertBatch:
		f.entries(r.GI, r.Vals, r.Gs, true, r.Metered)
	case node.GIDeleteBatch:
		f.entries(r.GI, r.Vals, r.Gs, false, true)
	case node.CreateFragment:
		if f.ddl(r.Name) {
			f.sink.send(at, node.CreateFragment{Name: f.target, Schema: r.Schema, ClusterCol: r.ClusterCol, PageRows: r.PageRows}, 0)
		}
	case node.CreateGlobalIndex:
		if f.ddl(r.Name) {
			f.sink.send(at, node.CreateGlobalIndex{Name: f.target, DistClustered: r.DistClustered}, 0)
		}
	case node.DropFragment:
		if f.ddl(r.Name) {
			f.sink.send(at, node.DropFragment{Name: f.target}, 0)
		}
	case node.DropGlobalIndexFrag:
		if f.ddl(r.Name) {
			f.sink.send(at, node.DropGlobalIndexFrag{Name: f.target}, 0)
		}
	}
}

// fanout carries one applied write through fanOut.
type fanout struct {
	c      *Cluster
	at     int
	policy copyPolicy
	// Set by resolve: the written structure, its sink and its copy's name.
	s      slotStruct
	sink   copySink
	target string
}

// resolve looks up the written structure and its sink; false when nothing
// copies it.
func (f *fanout) resolve(name string) bool {
	if uncopied(name) {
		return false
	}
	s, ok := f.c.slotStructNamed(name)
	if !ok {
		return false
	}
	if f.sink = f.policy.sinkFor(name); f.sink == nil {
		return false
	}
	f.s, f.target = s, f.sink.copyName(name)
	return true
}

// rows buckets written rows by copy target.
func (f *fanout) rows(name string, tuples []types.Tuple) map[int][]types.Tuple {
	if len(tuples) == 0 || !f.resolve(name) {
		return nil
	}
	return groupBy(tuples, func(i int) []int { return f.sink.targets(tuples[i][f.s.partIdx], f.at) })
}

// keyed buckets the indexes of n written items by copy target; key gives
// item i's slot key.
func (f *fanout) keyed(name string, n int, key func(i int) types.Value) map[int][]int {
	if n == 0 || !f.resolve(name) {
		return nil
	}
	return groupBy(span(n), func(i int) []int { return f.sink.targets(key(i), f.at) })
}

// deleteImages mirrors a delete by the removed rows' images: row ids
// differ in the copy.
func (f *fanout) deleteImages(name string, resp any) {
	dr, ok := resp.(node.DeleteResult)
	if !ok {
		return
	}
	by := f.rows(name, dr.Tuples)
	for _, d := range sortedKeys(by) {
		f.sink.send(d, node.DeleteMatch{Frag: f.target, HintCol: f.s.hintCol, Tuples: by[d]}, len(by[d]))
	}
}

// entries mirrors global-index entries written (insert) or removed. A
// mirrored insert is metered when the original was and the copy meters
// inserts; deletes always are.
func (f *fanout) entries(name string, vals []types.Value, gs []storage.GlobalRowID, insert, metered bool) {
	if len(vals) != len(gs) {
		return
	}
	by := f.keyed(name, len(vals), func(i int) types.Value { return vals[i] })
	for _, d := range sortedKeys(by) {
		vs, es := pick(vals, by[d]), pick(gs, by[d])
		var req any = node.GIDeleteBatch{GI: f.target, Vals: vs, Gs: es}
		if insert {
			req = node.GIInsertBatch{GI: f.target, Vals: vs, Gs: es, Metered: metered && !f.sink.unmetered()}
		}
		f.sink.send(d, req, len(vs))
	}
}

// ddl resolves the sink for a structure created or dropped at f.at, whose
// copy there follows it. Drops arrive after the catalog entry is gone, so
// DDL resolves by name alone.
func (f *fanout) ddl(name string) bool {
	if uncopied(name) {
		return false
	}
	if f.sink = f.policy.sinkFor(name); f.sink == nil {
		return false
	}
	f.target = f.sink.copyName(name)
	return true
}

// uncopied reports names that are never copied: copies themselves
// (shadows "~r", staging "~migN") and query temporaries.
func uncopied(name string) bool {
	return strings.Contains(name, "~") || strings.HasPrefix(name, "__q")
}

// promoted is one node's share of moved rows and the row ids they got.
type promoted struct {
	node   int
	rows   []storage.RowID
	tuples []types.Tuple
}

// promoteSlots moves the rows and entries of slots from each taking-over
// node's copies (copyName names them) into its main structures; owners maps
// node → the slots it takes over, mod is the map's slot count. It returns
// every fragment's promoted rows, by name.
func (c *Cluster) promoteSlots(call caller, structs []slotStruct, copyName func(string) string, mod int, owners map[int][]int) (map[string][]promoted, error) {
	out := map[string][]promoted{}
	for _, s := range structs {
		for _, n := range sortedKeys(owners) {
			var req any = node.PromoteSlots{Src: copyName(s.name), Dst: s.name, PartIdx: s.partIdx, Mod: mod, Slots: owners[n]}
			if s.gi {
				req = node.GIPromoteSlots{Src: copyName(s.name), Dst: s.name, Mod: mod, Slots: owners[n]}
			}
			resp, err := call(n, req)
			if err != nil {
				return nil, fmt.Errorf("cluster: promoting %q slots at node %d: %w", s.name, n, err)
			}
			if pr, ok := resp.(node.PromoteResult); ok {
				out[s.name] = append(out[s.name], promoted{node: n, rows: pr.Rows, tuples: pr.Tuples})
			}
		}
	}
	return out, nil
}

// reindex inserts — or with del, deletes — one global index's entries for
// moved base rows, at each entry's home under pm and, when pm is
// replicated, in its followers' shadows.
func (c *Cluster) reindex(call caller, gi slotStruct, pm hashpart.Map, moved []promoted, del bool) error {
	type batch struct {
		vals []types.Value
		gs   []storage.GlobalRowID
	}
	homes, shadows := map[int]*batch{}, map[int]*batch{}
	add := func(set map[int]*batch, n int, v types.Value, g storage.GlobalRowID) {
		b := set[n]
		if b == nil {
			b = &batch{}
			set[n] = b
		}
		b.vals = append(b.vals, v)
		b.gs = append(b.gs, g)
	}
	for _, p := range moved {
		for i, tup := range p.tuples {
			v := tup[gi.partIdx]
			g := storage.GlobalRowID{Node: int32(p.node), Row: p.rows[i]}
			slot := pm.Slot(v)
			add(homes, pm.Owner[slot], v, g)
			for _, f := range pm.Followers(slot) {
				add(shadows, f, v, g)
			}
		}
	}
	for _, set := range []struct {
		name    string
		batches map[int]*batch
	}{{gi.name, homes}, {shadowName(gi.name), shadows}} {
		for _, n := range sortedKeys(set.batches) {
			b := set.batches[n]
			var req any = node.GIInsertBatch{GI: set.name, Vals: b.vals, Gs: b.gs}
			if del {
				req = node.GIDeleteBatch{GI: set.name, Vals: b.vals, Gs: b.gs}
			}
			if _, err := call(n, req); err != nil {
				return fmt.Errorf("cluster: re-registering %q at node %d: %w", set.name, n, err)
			}
		}
	}
	return nil
}

// deleteMisplaced deletes, on each given node, every row and global-index
// entry whose home under pm is another node. After a cutover's map
// install these are exactly the moved rows' stale source copies; under
// the old map after an aborted cutover, the rows it merged into the
// destinations. Idempotent.
func (c *Cluster) deleteMisplaced(call caller, pm hashpart.Map, nodes []int) error {
	structs, err := c.slotStructs()
	if err != nil {
		return err
	}
	for _, s := range structs {
		for _, n := range nodes {
			var req any
			if s.gi {
				resp, err := call(n, node.GIScan{GI: s.name})
				if err != nil {
					return err
				}
				r := resp.(node.GIScanResult)
				var idx []int
				for i, v := range r.Vals {
					if pm.NodeFor(v) != n {
						idx = append(idx, i)
					}
				}
				if len(idx) > 0 {
					req = node.GIDeleteBatch{GI: s.name, Vals: pick(r.Vals, idx), Gs: pick(r.Gs, idx)}
				}
			} else {
				resp, err := call(n, node.ScanWithRows{Frag: s.name})
				if err != nil {
					return err
				}
				r := resp.(node.RowsResult)
				var rows []storage.RowID
				for i, t := range r.Tuples {
					if pm.NodeFor(t[s.partIdx]) != n {
						rows = append(rows, r.Rows[i])
					}
				}
				if len(rows) > 0 {
					req = node.DeleteRows{Frag: s.name, Rows: rows}
				}
			}
			if req == nil {
				continue
			}
			if _, err := call(n, req); err != nil {
				return err
			}
		}
	}
	return nil
}

// tapMutation feeds one successfully applied mutating request to the live
// fan-out of the active policy: follower mirroring under replication,
// else an in-flight migration's catch-up queue. The resilient delivery
// layer calls it on the normal path, the broadcast path and in-doubt
// resolution, compensations included, so copies see exactly the physical
// history the sources see. Recovery and engine traffic (rawCall,
// rawDeliver) is not tapped: rebuilds regenerate source state wholesale
// and would double-apply against the copies.
func (c *Cluster) tapMutation(to int, wreq, resp any) {
	if c.replOn() {
		c.fanOut(to, wreq, resp, replication{c})
		return
	}
	c.migMu.RLock()
	m := c.mig
	c.migMu.RUnlock()
	if m != nil {
		c.fanOut(to, wreq, resp, m)
	}
}
