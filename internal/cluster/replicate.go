package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"joinview/internal/catalog"
	"joinview/internal/fault"
	"joinview/internal/hashpart"
	"joinview/internal/maintain"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/types"
	"joinview/internal/wal"
)

// This file implements K-way synchronous fragment replication
// (Config.ReplicationFactor): follower copies, write mirroring, fast
// failover by slot promotion, and online re-replication.
//
// Data model. Every cataloged fragment F (base table, auxiliary relation,
// view) and global index g gets a same-node shadow F~r / g~r on every
// node. Node f's shadow holds exactly the rows/entries of the hash slots f
// follows (slots s with f ∈ Repl[s]). Main fragments keep holding only
// primary copies, so every healthy read path — broadcasts, gathers,
// probes, global-index lookups — is unchanged and duplicate-free; the
// RF=1 and RF>=2 healthy paths are byte-identical.
//
// Write path. The resilient delivery layer feeds every applied mutating
// sub-request to the slot-copy engine's live fan-out (slotcopy.go), whose
// replication policy buckets tuples and index entries by slot and
// re-delivers them to each follower's shadow, inside the same statement
// scope — under Durability
// the mirrors carry the statement's TID, so followers participate in the
// presumed-abort two-phase commit. A mirror failure never fails the
// statement: a dead follower is already in the degraded set (the next
// statement fails over around it), any other mirror failure evicts the
// follower (staleRepl) until re-replication copies it fresh.
//
// Failover. When a node is down (crash, MarkNodeDown, or an opened
// circuit breaker, which under replication marks the node down), heal()
// promotes each of its slots to the first live in-sync follower with the
// engine's promote step: the slot's rows and index entries move from the
// follower's shadows into its main structures, global indexes swap
// dangling row references to the promoted copies (GIScrubNode +
// reinsert), and a new map without the victim installs. From then on the
// victim is "failed over": DML commits on the survivors and broadcasts
// answer for the dead node with typed empty responses.
//
// Repair. ReplicateRepair brings the cluster back to full strength
// online: down nodes restart and are wiped back to empty cataloged
// fragments, stale followers' shadows are wiped, a deficit plan picks new
// followers for under-replicated slots, and the engine's snapshot copier
// copies each object primary→shadow under a claim that blocks only that
// object's writers; copied objects are "armed" so concurrent writers
// mirror to the new followers too (and only then — a rebuilt shadow takes
// no write before its copy), and a final map install makes them real.

// replOn reports whether K-way replication is configured.
func (c *Cluster) replOn() bool { return c.cfg.ReplicationFactor > 1 }

// failIfReplicated refuses elasticity operations under replication: slot
// migration and the replica chains are not yet integrated (a migrated
// slot's followers would keep the old placement).
func (c *Cluster) failIfReplicated(op string) error {
	if c.replOn() {
		return fmt.Errorf("cluster: %s is not supported with ReplicationFactor > 1", op)
	}
	return nil
}

// replShadowSuffix marks follower shadow fragments (migration staging
// fragments use "~mig").
const replShadowSuffix = "~r"

// shadowName returns the follower-shadow fragment name of a cataloged
// fragment or global index.
func shadowName(name string) string { return name + replShadowSuffix }

// replSink is the replication policy's live fan-out sink for one
// applied write: the routing state it mirrors by, snapshotted once.
type replSink struct {
	c    *Cluster
	pm   hashpart.Map
	skip map[int]bool // down or evicted: no Repl-based mirrors
	down map[int]bool
	sess *replRepair
	// armed: the in-flight repair round has copied the written structure.
	armed bool
}

// replication is the replica policy of the live fan-out: every write is
// mirrored to the followers of its slot.
type replication struct{ c *Cluster }

func (r replication) sinkFor(name string) copySink {
	c := r.c
	m := &replSink{c: c, pm: c.part.Map(), skip: map[int]bool{}, down: map[int]bool{}}
	c.dmu.Lock()
	for n := range c.downNodes {
		m.skip[n] = true
		m.down[n] = true
	}
	c.dmu.Unlock()
	c.rmu.Lock()
	for n := range c.staleRepl {
		m.skip[n] = true
	}
	m.sess = c.repairSess
	c.rmu.Unlock()
	m.armed = m.sess != nil && m.sess.copy.isArmed(name)
	return m
}

// targets returns the followers that must receive a write to v's slot:
// the installed replica set minus down and evicted followers, and minus
// the followers a repair round is rebuilding until the written
// structure's copy is armed — from then on the round's targets too.
func (m *replSink) targets(v types.Value, _ int) []int {
	slot := m.pm.Slot(v)
	var out []int
	for _, f := range m.pm.Followers(slot) {
		if m.skip[f] || (m.sess != nil && m.sess.dirty[f] && !m.armed) {
			continue
		}
		out = append(out, f)
	}
	if m.armed {
		for _, f := range m.sess.copy.targets[slot] {
			if !m.down[f] && !slices.Contains(out, f) {
				out = append(out, f)
			}
		}
	}
	return out
}

func (m *replSink) copyName(name string) string { return shadowName(name) }

func (m *replSink) send(dst int, req any, n int) { m.c.deliverMirror(dst, req, n) }

func (m *replSink) unmetered() bool { return false }

// mirrorToFollowers fans one applied mutating request out to the follower
// shadows of the slots it touched.
func (c *Cluster) mirrorToFollowers(to int, req, resp any) {
	if c.replOn() {
		c.fanOut(to, req, resp, replication{c})
	}
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// mirrorAsIfApplied mirrors a compensation that could not be delivered to
// its (down) destination. The node itself is recovered by wipe or local
// log replay, but its followers already hold the aborted statement's
// forward writes in their shadows: without the mirrored undo a later
// failover would promote rows of a rolled-back statement. The request is
// treated as if the destination had applied it in full — exactly what the
// destination's recovery converges to.
func (c *Cluster) mirrorAsIfApplied(to int, req any) {
	if !c.replOn() {
		return
	}
	switch r := req.(type) {
	case node.DeleteMatch:
		// Synthesize the response the mirror transform reads: the tuples
		// were written by this statement, so every one of them matches.
		c.mirrorToFollowers(to, req, node.DeleteResult{Tuples: r.Tuples})
	case node.DeleteRows:
		// Row ids alone cannot locate the shadow copies; callers with the
		// rows' contents use undoCallRows instead.
	default:
		c.mirrorToFollowers(to, req, nil)
	}
}

// mirrorViewUndoForDown mirrors the portion of a view-delta undo that was
// addressed to down nodes. ApplyToView's scatter applies (and mirrors) the
// undo at every live owner but fails against crashed ones; this re-derives
// those buckets and sends the as-if-applied compensation to the down
// owners' followers, keeping their view shadows at the aborted-statement
// state the failover promotes from.
func (c *Cluster) mirrorViewUndoForDown(v *catalog.View, delta []types.Tuple, op maintain.Op) {
	if !c.replOn() || len(delta) == 0 {
		return
	}
	m := c.part.Map()
	partCol := v.PartitionQualified()
	idx := v.Schema.ColIndex(partCol)
	if idx < 0 {
		return
	}
	if v.IsAggregate() {
		groups, err := maintain.FoldAggDeltas(v, delta, op)
		if err != nil {
			return
		}
		byDst := map[int][]maintain.AggGroup{}
		for _, g := range groups {
			n := m.Owner[m.Slot(g.Key[idx])]
			if c.isDown(n) {
				byDst[n] = append(byDst[n], g)
			}
		}
		for _, n := range sortedKeys(byDst) {
			req := node.AggApply{
				Frag: v.Name, HintCol: partCol,
				GroupLen: len(v.Out), CountPos: v.CountIndex() - len(v.Out),
			}
			for _, g := range byDst[n] {
				req.Keys = append(req.Keys, g.Key)
				req.Deltas = append(req.Deltas, g.Deltas)
			}
			c.mirrorAsIfApplied(n, req)
		}
		return
	}
	byDst := map[int][]types.Tuple{}
	for _, t := range delta {
		n := m.Owner[m.Slot(t[idx])]
		if c.isDown(n) {
			byDst[n] = append(byDst[n], t)
		}
	}
	for _, n := range sortedKeys(byDst) {
		var req any
		if op == maintain.OpInsert {
			req = node.Insert{Frag: v.Name, Tuples: byDst[n]}
		} else {
			req = node.DeleteMatch{Frag: v.Name, HintCol: partCol, Tuples: byDst[n]}
		}
		c.mirrorAsIfApplied(n, req)
	}
}

// deliverMirror sends one shadow write to a follower through the full
// resilient path (sequence envelope, TID stamping, retries), absorbing
// every failure: the statement's outcome never depends on a mirror. A
// dead follower is already noted down (failover covers it); any other
// failure evicts the follower until re-replication.
func (c *Cluster) deliverMirror(dst int, req any, tuples int) {
	if c.isDown(dst) {
		return
	}
	if _, err := c.resilientCall(netsim.Coordinator, dst, req, false); err != nil {
		if _, down := fault.IsNodeDown(err); down || errors.Is(err, ErrDegraded) {
			// noteDown already happened inside deliver; the next statement
			// (or read) fails over around the node.
			return
		}
		c.evictFollower(dst)
		return
	}
	c.rstats.RecordMirror(tuples)
}

// evictFollower marks a follower stale: it stops receiving mirrors and is
// never promoted to, until ReplicateRepair wipes and recopies its shadows.
func (c *Cluster) evictFollower(n int) {
	c.rmu.Lock()
	already := c.staleRepl[n]
	c.staleRepl[n] = true
	c.rmu.Unlock()
	if !already {
		c.rstats.RecordEviction()
	}
}

// unhealedDown lists down nodes whose slots have not been failed over yet
// (sorted).
func (c *Cluster) unhealedDown() []int {
	c.dmu.Lock()
	down := make([]int, 0, len(c.downNodes))
	for n := range c.downNodes {
		down = append(down, n)
	}
	c.dmu.Unlock()
	c.rmu.Lock()
	out := down[:0]
	for _, n := range down {
		if !c.failedOver[n] {
			out = append(out, n)
		}
	}
	c.rmu.Unlock()
	sort.Ints(out)
	return out
}

// replServesComplete reports whether the cluster, though degraded, serves
// complete reads and commits DML: replication is on and every down node's
// slots were promoted to surviving followers.
func (c *Cluster) replServesComplete() bool {
	if !c.replOn() {
		return false
	}
	c.dmu.Lock()
	anyDown := len(c.downNodes) > 0
	c.dmu.Unlock()
	if !anyDown {
		return false
	}
	return len(c.unhealedDown()) == 0
}

// heal promotes the slots of every unhealed down node to surviving
// followers. Cheap when there is nothing to do; otherwise it runs the
// failover under the global exclusive lock. Callers must not hold cluster
// locks.
func (c *Cluster) heal() error {
	if !c.replOn() || len(c.unhealedDown()) == 0 {
		return nil
	}
	h := c.lockGlobal()
	defer h.Release()
	return c.failoverLocked()
}

// shouldFailover reports whether a statement error is the kind a failover
// plus retry can cure: a node found dead or suspect mid-statement.
func (c *Cluster) shouldFailover(err error) bool {
	if !c.replOn() || err == nil {
		return false
	}
	if errors.Is(err, ErrDegraded) || errors.Is(err, ErrSuspect) {
		return true
	}
	_, down := fault.IsNodeDown(err)
	return down
}

// withFailover runs one statement, and on a node-failure error heals
// (promotes the dead node's slots) and retries. Two retries cover a
// second node failing during the first retry.
func (c *Cluster) withFailover(do func() error) error {
	err := do()
	for tries := 0; tries < 2 && c.shouldFailover(err); tries++ {
		if herr := c.heal(); herr != nil {
			return fmt.Errorf("%w (failover also failed: %v)", err, herr)
		}
		err = do()
	}
	return err
}

// failoverLocked promotes every unhealed down node's slots to their first
// live in-sync follower and installs the resulting map. Caller holds the
// global exclusive lock.
func (c *Cluster) failoverLocked() error {
	victims := c.unhealedDown()
	if len(victims) == 0 {
		return nil
	}
	m := c.part.Map()
	if !m.Replicated() {
		return fmt.Errorf("%w: nodes %v unavailable", ErrDegraded, victims)
	}
	vic := map[int]bool{}
	for _, v := range victims {
		vic[v] = true
	}
	c.rmu.Lock()
	stale := map[int]bool{}
	for n := range c.staleRepl {
		stale[n] = true
	}
	c.rmu.Unlock()

	nm := m.Clone()
	promoted := map[int][]int{}  // new owner -> slots it takes over
	victimSlots := map[int]int{} // victim -> slot count (stats)
	for s, o := range nm.Owner {
		if vic[o] {
			next := -1
			for _, f := range m.Repl[s] {
				if !vic[f] && !stale[f] && !c.isDown(f) {
					next = f
					break
				}
			}
			if next < 0 {
				return fmt.Errorf("%w: slot %d lost node %d and has no live in-sync replica", ErrDegraded, s, o)
			}
			nm.Owner[s] = next
			promoted[next] = append(promoted[next], s)
			victimSlots[o]++
		}
		var keep []int
		for _, f := range nm.Repl[s] {
			if !vic[f] && f != nm.Owner[s] {
				keep = append(keep, f)
			}
		}
		nm.Repl[s] = keep
	}
	nm.Epoch++

	// Move the promoted slots' rows and entries shadow→main on each new
	// owner, then swap the global-index entries still pointing at a
	// victim's rows for the promoted copies. Index entries only ever
	// reference primary copies, so scrub + reinsert is complete.
	structs, err := c.slotStructs()
	if err != nil {
		return err
	}
	moved, err := c.promoteSlots(c.rawCall, structs, shadowName, len(m.Owner), promoted)
	if err != nil {
		return err
	}
	for _, s := range structs {
		if !s.gi {
			continue
		}
		for n := 0; n < c.NumNodes(); n++ {
			if c.isDown(n) {
				continue
			}
			for _, v := range victims {
				for _, name := range []string{s.name, shadowName(s.name)} {
					if _, err := c.rawCall(n, node.GIScrubNode{GI: name, Node: v}); err != nil {
						return fmt.Errorf("cluster: scrubbing %q at node %d: %w", name, n, err)
					}
				}
			}
		}
		if err := c.reindex(c.rawCall, s, nm, moved[s.object], false); err != nil {
			return err
		}
	}

	if err := c.part.Install(nm); err != nil {
		return err
	}
	c.cat.SetPartitionMap(nm)
	c.rmu.Lock()
	for _, v := range victims {
		c.failedOver[v] = true
	}
	c.rmu.Unlock()
	for _, v := range victims {
		c.rstats.RecordFailover(victimSlots[v])
		if c.cfg.Durability {
			c.coordLog.Append(wal.Record{Kind: wal.KindReplFailover, Req: wal.ReplFailover{
				Node: v, Epoch: nm.Epoch, PromotedSlots: victimSlots[v],
			}})
		}
	}
	if c.cfg.Durability {
		c.coordLog.Force()
	}
	return nil
}

// replRepair is the coordinator-side state of one in-flight
// re-replication round.
type replRepair struct {
	// copy is the primary→shadow copy of the under-replicated slots.
	copy *slotCopy
	// dirty holds the nodes whose shadows the round wipes and recopies.
	dirty map[int]bool
	total int // objects to copy
}

// ReplRepairStatus describes an in-flight ReplicateRepair round.
type ReplRepairStatus struct {
	Phase string
	// ObjectsDone / ObjectsTotal track the per-object copy progress.
	ObjectsDone, ObjectsTotal int
	// Slots counts slot-replicas the round is restoring.
	Slots int
}

// ReplicateRepair restores the cluster to full replication strength:
// every down node is restarted and wiped back to empty cataloged
// fragments, evicted (stale) followers' shadows are wiped, a deficit plan
// assigns new followers to under-replicated slots, and each cataloged
// object's rows are copied primary→shadow under a claim that blocks that
// object's writers — DML on other objects keeps running, and writers to a
// copied object mirror to the new followers from the moment its copy
// completes.
// The new replica map installs at the end.
func (c *Cluster) ReplicateRepair() error {
	if !c.replOn() {
		return fmt.Errorf("cluster: ReplicateRepair requires ReplicationFactor > 1")
	}
	// Promote away any not-yet-healed failure first, so the copy sources
	// (the primaries) are all live.
	if err := c.heal(); err != nil {
		return err
	}

	// Phase A (exclusive): revive down nodes, wipe dirty shadows, plan the
	// deficit, and install the repair session.
	h, err := c.lockGlobalDrained()
	if err != nil {
		return err
	}
	if err := c.failIfMigrating(); err != nil {
		h.Release()
		return err
	}
	down := c.Degraded()
	revived := map[int]bool{}
	for _, n := range down {
		if err := c.reviveNodeLocked(n); err != nil {
			h.Release()
			return err
		}
		revived[n] = true
	}
	c.rmu.Lock()
	stale := map[int]bool{}
	for n := range c.staleRepl {
		stale[n] = true
	}
	for n := range revived {
		delete(c.failedOver, n)
	}
	c.rmu.Unlock()

	m := c.part.Map()
	nm := m.Clone()
	k := c.cfg.ReplicationFactor
	if nm.Repl == nil {
		nm.Repl = make([][]int, len(nm.Owner))
	}
	dirty := map[int]bool{}
	for n := range revived {
		dirty[n] = true
	}
	for n := range stale {
		dirty[n] = true
	}
	targets := map[int][]int{}
	restored := 0
	for s, o := range nm.Owner {
		have := map[int]bool{o: true}
		var keep []int
		for _, f := range nm.Repl[s] {
			if !have[f] {
				keep = append(keep, f)
				have[f] = true
			}
		}
		for j := 1; len(keep) < k-1 && j < nm.Nodes; j++ {
			cand := (o + j) % nm.Nodes
			if have[cand] {
				continue
			}
			keep = append(keep, cand)
			have[cand] = true
			dirty[cand] = true
		}
		nm.Repl[s] = keep
	}
	// A dirty node's shadows are wiped whole, so it is a copy target for
	// every slot it follows, including slots planned before it turned dirty.
	for s, fs := range nm.Repl {
		for _, f := range fs {
			if dirty[f] {
				targets[s] = append(targets[s], f)
				restored++
			}
		}
	}
	// Wipe the shadows of every dirty node that was not already wiped by
	// the revive, so the copy lands on empty fragments.
	for _, n := range sortedKeys(dirty) {
		if revived[n] {
			continue
		}
		if err := c.wipeLocked(n, false); err != nil {
			h.Release()
			return err
		}
	}
	structs, err := c.slotStructs()
	if err != nil {
		h.Release()
		return err
	}
	objects := splitObjects(structs)
	sess := &replRepair{
		copy:  newSlotCopy(m, targets, shadowName, c.rawCall),
		dirty: dirty,
		total: len(objects),
	}
	c.rmu.Lock()
	c.repairSess = sess
	c.rmu.Unlock()
	h.Release()

	fail := func(err error) error {
		c.rmu.Lock()
		c.repairSess = nil
		c.rmu.Unlock()
		return err
	}

	// Phase B (online): copy each object's rows to its dirty followers,
	// arming it before its claim is released so subsequent writers mirror
	// to the new followers too.
	for _, obj := range objects {
		if err := c.copyObject(sess.copy, obj); err != nil {
			return fail(err)
		}
	}

	// Phase C (exclusive): make the new followers official.
	h2 := c.lockGlobal()
	defer h2.Release()
	if d := c.Degraded(); len(d) > 0 {
		return fail(fmt.Errorf("%w: nodes %v failed during re-replication; run ReplicateRepair again", ErrDegraded, d))
	}
	nm.Epoch = c.part.Map().Epoch + 1
	if err := c.part.Install(nm); err != nil {
		return fail(err)
	}
	c.cat.SetPartitionMap(nm)
	c.rmu.Lock()
	c.repairSess = nil
	for n := range dirty {
		delete(c.staleRepl, n)
	}
	c.rmu.Unlock()
	c.rstats.RecordRepair(restored)
	if c.cfg.Durability {
		c.coordLog.Append(wal.Record{Kind: wal.KindReplRepair, Req: wal.ReplRepair{
			Epoch: nm.Epoch, RepairedSlots: restored,
		}})
		c.coordLog.Force()
		// Re-image revived nodes: their pre-crash checkpoint + log no
		// longer describe the recopied state.
		for _, n := range sortedKeys(revived) {
			if _, err := c.rawDeliver(n, node.CheckpointReq{}); err != nil {
				return fmt.Errorf("cluster: checkpointing revived node %d: %w", n, err)
			}
		}
	}
	return nil
}

// reviveNodeLocked restarts one down node and wipes it back to empty
// cataloged fragments (main and shadow): its slots were promoted away at
// failover, so it owns nothing until re-replication re-adds it as a
// follower. Caller holds the global exclusive lock.
func (c *Cluster) reviveNodeLocked(n int) error {
	if c.cfg.Durability {
		// Restart from the node's own durable state and settle its
		// in-doubt transactions, so the wipe starts from a decided log.
		if _, err := c.recoverDurable(n); err != nil {
			return fmt.Errorf("cluster: reviving node %d: %w", n, err)
		}
	} else {
		if c.cfg.Faults != nil {
			c.cfg.Faults.Restart(n)
		}
		if _, err := c.rawDeliver(n, node.Ping{}); err != nil {
			return fmt.Errorf("cluster: node %d not answering, restart it first: %w", n, err)
		}
		c.takeRepairs(n)
		c.dmu.Lock()
		delete(c.downNodes, n)
		delete(c.needRebuild, n)
		c.dmu.Unlock()
	}
	c.breakerReset(n)
	return c.wipeLocked(n, true)
}

// wipeLocked drops and recreates, empty, the shadow of every slot-owned
// structure on node n — and with main, its main fragments too. Caller
// holds the global exclusive lock.
func (c *Cluster) wipeLocked(n int, main bool) error {
	structs, err := c.slotStructs()
	if err != nil {
		return err
	}
	for _, s := range structs {
		names := []string{shadowName(s.name)}
		if main {
			names = append(names, s.name)
		}
		for _, name := range names {
			// Tolerant: the node may have crashed before the fragment existed.
			_, _ = c.rawCall(n, dropReq(s.gi, name))
			if err := c.createStruct(c.rawCall, n, s, name); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReplStatus summarizes replication for Topology: whether each node is
// failed over or evicted, and repair progress.
func (c *Cluster) replStatus() (failedOver, stale []int, repair *ReplRepairStatus) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for n := range c.failedOver {
		failedOver = append(failedOver, n)
	}
	for n := range c.staleRepl {
		stale = append(stale, n)
	}
	sort.Ints(failedOver)
	sort.Ints(stale)
	if s := c.repairSess; s != nil {
		slots := 0
		for _, fs := range s.copy.targets {
			slots += len(fs)
		}
		repair = &ReplRepairStatus{Phase: "copy", ObjectsDone: s.copy.progress(), ObjectsTotal: s.total, Slots: slots}
	}
	return failedOver, stale, repair
}

// emptyRespFor synthesizes the typed empty response a failed-over node
// would give: its slots were promoted away, so it holds no rows, no index
// entries and no matches. Mutating requests acknowledge vacuously — there
// is nothing on the node for them to touch.
func emptyRespFor(req any) any {
	switch req.(type) {
	case node.AllRows, node.Scan, node.ScanWithRows, node.FindMatching, node.LocateMatch:
		return node.RowsResult{}
	case node.Probe, node.FetchJoin:
		return node.Probed{}
	case node.Insert:
		return node.InsertResult{}
	case node.DeleteRows, node.DeleteMatch:
		return node.DeleteResult{}
	case node.GIScan:
		return node.GIScanResult{}
	case node.GILookup:
		return node.GIRows{}
	case node.GILen:
		return node.GILenResult{}
	case node.GIDeleteBatch:
		return node.GIDeletedBatch{}
	case node.LocalJoin:
		return node.LocalJoinResult{}
	case node.FragInfo:
		return node.FragInfoResult{}
	case node.PromoteSlots:
		return node.PromoteResult{}
	case node.GIScrubNode:
		return node.GIScrubbed{}
	default:
		return node.Ack{}
	}
}

// broadcastSkipDown fans a request out to the live nodes only,
// synthesizing typed empty responses for failed-over nodes. Only valid
// once every down node's slots are promoted (replServesComplete).
func (c *Cluster) broadcastSkipDown(from int, req any) ([]any, error) {
	mut := isMutating(req)
	var wreq any = req
	var id uint64
	tid := uint64(0)
	if mut {
		id = c.seq.Add(1)
		tid = c.curTID.Load()
		wreq = node.Seq{ID: id, TID: tid, Req: req}
	}
	out := make([]any, c.NumNodes())
	var errs []error
	for to := 0; to < c.NumNodes(); to++ {
		if c.isDown(to) {
			out[to] = emptyRespFor(req)
			continue
		}
		if mut && tid != 0 {
			c.addParticipant(to)
		}
		resp, err := c.deliver(from, to, wreq, id, mut, false)
		if err != nil {
			errs = append(errs, fmt.Errorf("netsim: broadcast to node %d: %w", to, err))
			continue
		}
		out[to] = resp
	}
	return out, errors.Join(errs...)
}
