package cluster

import (
	"errors"
	"fmt"

	"joinview/internal/catalog"
	"joinview/internal/expr"
	"joinview/internal/maintain"
	"joinview/internal/mplan"
	"joinview/internal/netsim"
	"joinview/internal/node"
	"joinview/internal/plan"
	"joinview/internal/storage"
	"joinview/internal/txn"
	"joinview/internal/types"
)

// located ties a base tuple to its storage position, for global-index
// entries and undo.
type located struct {
	node  int
	row   storage.RowID
	tuple types.Tuple
}

// errNoVictims aborts a delete/update statement that matched nothing. The
// statement scope still opened (the victim scan runs inside it, so a
// concurrent writer cannot invalidate located row ids between scan and
// apply), but under presumed abort an empty statement costs nothing: no
// participants, no decision record.
var errNoVictims = errors.New("cluster: statement matched no tuples")

// Insert runs one insert transaction against a base table: route and store
// the tuples, update every auxiliary relation and global index of the
// table, then propagate the delta into every join view on the table using
// the view's maintenance strategy — the compiled insert pipeline for the
// table. On any error all applied work is rolled back.
func (c *Cluster) Insert(table string, tuples []types.Tuple) error {
	if len(tuples) == 0 {
		return nil
	}
	return c.withFailover(func() error { return c.insertOnce(table, tuples) })
}

func (c *Cluster) insertOnce(table string, tuples []types.Tuple) error {
	if c.asyncOn() {
		return c.insertAsync(table, tuples)
	}
	h := c.lockStmt(table)
	defer h.Release()
	if err := c.failIfDegraded(); err != nil {
		return err
	}
	mp, err := c.planFor(table, maintain.OpInsert)
	if err != nil {
		return err
	}
	if err := c.runStmt(func(tx *txn.Txn) error {
		return c.execPlan(tx, mp, tuples, nil)
	}); err != nil {
		return err
	}
	c.publishStmt(table)
	c.bumpRows(table, int64(len(tuples)))
	return nil
}

// Delete removes every tuple of the table matching pred, maintaining all
// auxiliary structures and views, and returns the deleted tuples.
func (c *Cluster) Delete(table string, pred expr.Expr) ([]types.Tuple, error) {
	var out []types.Tuple
	err := c.withFailover(func() error {
		var err error
		out, err = c.deleteOnce(table, pred)
		return err
	})
	return out, err
}

func (c *Cluster) deleteOnce(table string, pred expr.Expr) ([]types.Tuple, error) {
	if c.asyncOn() {
		return c.deleteAsync(table, pred)
	}
	h := c.lockStmt(table)
	defer h.Release()
	deleted, err := c.deleteLocked(table, pred)
	if err != nil {
		return nil, err
	}
	c.bumpRows(table, -int64(len(deleted)))
	return deleted, nil
}

func (c *Cluster) deleteLocked(table string, pred expr.Expr) ([]types.Tuple, error) {
	if err := c.failIfDegraded(); err != nil {
		return nil, err
	}
	mp, err := c.planFor(table, maintain.OpDelete)
	if err != nil {
		return nil, err
	}
	// The victim scan runs inside the statement scope: the located row ids
	// stay valid until the statement's own deletes consume them, because
	// the statement holds its table locks the whole time.
	var victims []types.Tuple
	err = c.runStmt(func(tx *txn.Txn) error {
		var locs []located
		var err error
		victims, locs, err = c.findVictims(table, pred)
		if err != nil {
			return err
		}
		if len(victims) == 0 {
			return errNoVictims
		}
		return c.execPlan(tx, mp, victims, locs)
	})
	if errors.Is(err, errNoVictims) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	// Publish before the caller releases the statement's claims: the
	// epoch bump makes this statement's version records part of the
	// committed state for future snapshots.
	c.publishStmt(table)
	return victims, nil
}

// findVictims locates the tuples matching pred, with their storage
// positions. Each node FindMatching reaches runs a metered scan of its
// fragment (the paper's model does not charge victim location, but a real
// system reads the relation). A predicate that pins the partitioning
// column can match only at that value's home node (victimHome), so only
// that node is asked — the single-node delta the AR and GI methods are
// built for; every other predicate is broadcast to all nodes.
func (c *Cluster) findVictims(table string, pred expr.Expr) ([]types.Tuple, []located, error) {
	req := node.FindMatching{Frag: table, Pred: pred}
	var locs []located
	var victims []types.Tuple
	add := func(n int, r any) {
		rr := r.(node.RowsResult)
		for i := range rr.Rows {
			locs = append(locs, located{node: n, row: rr.Rows[i], tuple: rr.Tuples[i]})
			victims = append(victims, rr.Tuples[i])
		}
	}
	home, routed, err := c.victimHome(table, pred)
	if err != nil {
		return nil, nil, err
	}
	if routed {
		resp, err := c.tr.Call(netsim.Coordinator, home, req)
		if err != nil {
			return nil, nil, err
		}
		add(home, resp)
		return victims, locs, nil
	}
	resps, err := c.tr.Broadcast(netsim.Coordinator, req)
	if err != nil {
		return nil, nil, err
	}
	for n, r := range resps {
		add(n, r)
	}
	return victims, locs, nil
}

// victimHome returns the one node that can hold tuples matching pred, when
// pred's top-level conjunction holds partcol = v in either operand order.
// A tuple matches only if its partitioning value compares equal to v: for
// the non-float v pinnedValue accepts, that is the same kind and value,
// hence the same hash and v's home under the installed map (where
// migration and failover keep every stored row). A NULL v matches nothing,
// so routing it is exact too.
// The routed node may hold no tuple to evaluate pred on, so pred's columns
// are checked here: an unknown column stays an error.
func (c *Cluster) victimHome(table string, pred expr.Expr) (int, bool, error) {
	t, err := c.cat.Table(table)
	if err != nil {
		return 0, false, nil // the broadcast reports the missing fragment
	}
	v, ok := pinnedValue(pred, t.PartitionCol)
	if !ok {
		return 0, false, nil
	}
	if err := expr.CheckColumns(pred, t.Schema); err != nil {
		return 0, false, err
	}
	return c.part.NodeFor(v), true, nil
}

// pinnedValue finds a col = const term in pred's top-level conjunction.
// A float constant does not pin: 0 and -0 compare equal but hash apart, and
// a stored NaN compares equal to every float, wherever it lives.
func pinnedValue(pred expr.Expr, col string) (types.Value, bool) {
	switch p := pred.(type) {
	case expr.And:
		for _, term := range p.Terms {
			if v, ok := pinnedValue(term, col); ok {
				return v, true
			}
		}
	case expr.Cmp:
		if p.Op != expr.EQ {
			break
		}
		l, r := p.L, p.R
		if _, ok := r.(expr.Col); ok {
			l, r = r, l
		}
		lc, lok := l.(expr.Col)
		rc, rok := r.(expr.Const)
		if !lok || !rok || lc.Name != col {
			break
		}
		if rc.V.K != types.KindFloat {
			return rc.V, true
		}
	}
	return types.Value{}, false
}

// Update modifies every tuple matching pred by applying the set map
// (column -> new value), implemented as the paper treats updates: the
// compiled delete pipeline for the old tuples followed by the compiled
// insert pipeline for the new ones, all inside one transaction scope. It
// returns the number of tuples updated.
func (c *Cluster) Update(table string, set map[string]types.Value, pred expr.Expr) (int, error) {
	var n int
	err := c.withFailover(func() error {
		var err error
		n, err = c.updateOnce(table, set, pred)
		return err
	})
	return n, err
}

func (c *Cluster) updateOnce(table string, set map[string]types.Value, pred expr.Expr) (int, error) {
	if c.asyncOn() {
		return c.updateAsync(table, set, pred)
	}
	h := c.lockStmt(table)
	defer h.Release()
	t, err := c.cat.Table(table)
	if err != nil {
		return 0, err
	}
	for col := range set {
		if t.Schema.ColIndex(col) < 0 {
			return 0, fmt.Errorf("cluster: update %q: unknown column %q", table, col)
		}
	}
	if err := c.failIfDegraded(); err != nil {
		return 0, err
	}
	mpDel, err := c.planFor(table, maintain.OpDelete)
	if err != nil {
		return 0, err
	}
	mpIns, err := c.planFor(table, maintain.OpInsert)
	if err != nil {
		return 0, err
	}
	// The victim scan, the delete half and the insert half all run inside
	// one statement scope: a failure anywhere leaves neither half applied,
	// and the located row ids cannot be invalidated between scan and apply
	// because the statement holds its table locks throughout.
	count := 0
	err = c.runStmt(func(tx *txn.Txn) error {
		victims, locs, err := c.findVictims(table, pred)
		if err != nil {
			return err
		}
		if len(victims) == 0 {
			return errNoVictims
		}
		count = len(victims)
		replacement := make([]types.Tuple, len(victims))
		for i, v := range victims {
			nt := v.Clone()
			for col, val := range set {
				nt[t.Schema.MustColIndex(col)] = val
			}
			replacement[i] = nt
		}
		if err := c.execPlan(tx, mpDel, victims, locs); err != nil {
			return err
		}
		return c.execPlan(tx, mpIns, replacement, nil)
	})
	if errors.Is(err, errNoVictims) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	c.publishStmt(table)
	return count, nil
}

// chooseForView compiles the advisory stage for one view (uncached — the
// write path goes through the plan cache instead) and picks the option for
// a delta of deltaSize tuples.
func (c *Cluster) chooseForView(v *catalog.View, table string, deltaSize int) (*mplan.StrategyOption, error) {
	vs, err := mplan.CompileView(c.cat, c.st, v, table)
	if err != nil {
		return nil, err
	}
	return vs.Choose(c.NumNodes(), deltaSize,
		len(c.cat.AuxRelsFor(table)), len(c.cat.GlobalIndexesFor(table))), nil
}

// ResolveStrategy returns the maintenance method for one update of
// deltaSize tuples: the view's fixed strategy, or — for StrategyAuto — the
// cheapest by the multiway analytical model, considering only strategies
// whose auxiliary structures exist (the hybrid chooser from the paper's
// conclusion). The same chooser runs inside every compiled view stage.
func (c *Cluster) ResolveStrategy(v *catalog.View, table string, deltaSize int) (catalog.Strategy, error) {
	if s := v.StrategyFor(table); s != catalog.StrategyAuto {
		return s, nil
	}
	opt, err := c.chooseForView(v, table, deltaSize)
	if err != nil {
		return 0, err
	}
	return opt.Strategy, nil
}

// ExplainMaintenance renders the maintenance plan a view would execute for
// an update of the named table — EXPLAIN for the maintenance path.
func (c *Cluster) ExplainMaintenance(viewName, table string, deltaSize int) (string, error) {
	v, err := c.cat.View(viewName)
	if err != nil {
		return "", err
	}
	opt, err := c.chooseForView(v, table, deltaSize)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("strategy: %s\n%s", opt.Strategy, opt.Plan.Describe()), nil
}

// ComputeViewDeltaOnly runs just the "compute the changes to the view"
// step for a hypothetical delta, without touching the base relation, the
// auxiliary structures or the view — the exact measurement of the paper's
// §3.3 experiment, which timed the delta_customer ⋈ orders [⋈ lineitem]
// SELECT in isolation. It returns the number of join tuples the delta
// would produce and the I/O/message cost of computing them.
func (c *Cluster) ComputeViewDeltaOnly(viewName, table string, tuples []types.Tuple, strat catalog.Strategy) (int, Metrics, error) {
	// Global: the measurement window reads the whole cluster's meters, so
	// concurrent statements would pollute it.
	h := c.lockGlobal()
	defer h.Release()
	v, err := c.cat.View(viewName)
	if err != nil {
		return 0, Metrics{}, err
	}
	p, err := plan.Build(c.cat, c.st, v, table, strat)
	if err != nil {
		return 0, Metrics{}, err
	}
	before := c.Metrics()
	delta, _, err := maintain.ComputeViewDelta(c.env, p, tuples, c.cfg.Algo)
	if err != nil {
		return 0, Metrics{}, err
	}
	return len(delta), c.Metrics().Sub(before), nil
}

// bumpRows keeps the row-count statistic roughly current between explicit
// RefreshStats calls.
func (c *Cluster) bumpRows(table string, delta int64) {
	ts, ok := c.st.Get(table)
	if !ok {
		return
	}
	ts.Rows += delta
	if ts.Rows < 0 {
		ts.Rows = 0
	}
	c.st.Set(table, ts)
}
