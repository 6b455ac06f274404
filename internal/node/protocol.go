package node

import (
	"joinview/internal/storage"
	"joinview/internal/types"
)

// IsMutating reports whether a request changes node state, and therefore
// needs sequence-number dedup for safe retry and a redo record for
// durability. Reads are naturally idempotent and go unwrapped and unlogged.
// The two-phase-commit control requests (Prepare, Decide, ResolveAbort,
// CheckpointReq, CrashReq, RestartReq) write to the durable store but are
// idempotent by construction, so they are deliberately not listed.
func IsMutating(req any) bool {
	switch req.(type) {
	case Insert, DeleteRows, DeleteMatch, RestoreRows,
		GIInsert, GIInsertBatch, GIDelete, GIDeleteBatch, AggApply,
		LocalJoin, CreateFragment, CreateIndex,
		CreateGlobalIndex, DropFragment, DropGlobalIndexFrag,
		PromoteSlots, GIPromoteSlots, GIScrubNode:
		return true
	}
	return false
}

// InverseOf builds the request that undoes an applied request, given the
// response the node produced for it. Nil means no exact inverse exists (the
// caller falls back to rebuilding the affected derived structure).
func InverseOf(req, resp any) any {
	switch r := req.(type) {
	case Insert:
		ir, ok := resp.(InsertResult)
		if !ok {
			return nil
		}
		return DeleteRows{Frag: r.Frag, Rows: ir.Rows}
	case RestoreRows:
		return DeleteRows{Frag: r.Frag, Rows: r.Rows}
	case DeleteRows:
		dr, ok := resp.(DeleteResult)
		if !ok {
			return nil
		}
		return RestoreRows{Frag: r.Frag, Rows: dr.Rows, Tuples: dr.Tuples}
	case DeleteMatch:
		dr, ok := resp.(DeleteResult)
		if !ok {
			return nil
		}
		return RestoreRows{Frag: r.Frag, Rows: dr.Rows, Tuples: dr.Tuples}
	case GIInsert:
		return GIDelete{GI: r.GI, Val: r.Val, G: r.G}
	case GIDelete:
		gd, ok := resp.(GIDeleted)
		if !ok || !gd.OK {
			return nil
		}
		return GIInsert{GI: r.GI, Val: r.Val, G: r.G}
	case GIInsertBatch:
		return GIDeleteBatch{GI: r.GI, Vals: r.Vals, Gs: r.Gs}
	case GIDeleteBatch:
		gd, ok := resp.(GIDeletedBatch)
		if !ok || len(gd.OK) != len(r.Vals) {
			return nil
		}
		// Re-insert only the entries that existed and were removed.
		inv := GIInsertBatch{GI: r.GI, Metered: true}
		for i, ok := range gd.OK {
			if !ok {
				continue
			}
			inv.Vals = append(inv.Vals, r.Vals[i])
			inv.Gs = append(inv.Gs, r.Gs[i])
		}
		if len(inv.Vals) == 0 {
			return nil
		}
		return inv
	case AggApply:
		neg := r
		neg.Deltas = make([]types.Tuple, len(r.Deltas))
		for i, d := range r.Deltas {
			nd := make(types.Tuple, len(d))
			for j, v := range d {
				switch v.K {
				case types.KindInt:
					nd[j] = types.Int(-v.I)
				case types.KindFloat:
					nd[j] = types.Float(-v.F)
				default:
					nd[j] = v
				}
			}
			neg.Deltas[i] = nd
		}
		return neg
	}
	return nil
}

// AllRequests returns a zero value of every request type the node handles,
// one per type. It is the registry backing exhaustiveness tests: adding a
// case to Handle without listing it here (or vice versa) is a test failure,
// so new DML request types cannot silently lose dedup or undo coverage.
func AllRequests() []any {
	return []any{
		Seq{}, SeqQuery{}, Ping{},
		CreateFragment{}, CreateIndex{}, CreateGlobalIndex{},
		Insert{}, DeleteRows{}, RestoreRows{}, DeleteMatch{}, LocateMatch{},
		Probe{}, FetchJoin{}, FindMatching{},
		GIInsert{}, GIInsertBatch{}, GIDelete{}, GIDeleteBatch{}, GILookup{}, GILen{}, GIScan{},
		Scan{}, AllRows{}, ScanWithRows{},
		AggApply{}, DropFragment{}, DropGlobalIndexFrag{}, LocalJoin{},
		PromoteSlots{}, GIPromoteSlots{}, GIScrubNode{},
		FragInfo{}, MeterSnapshot{}, ResetMeter{},
		Prepare{}, Decide{}, ResolveAbort{}, InDoubtReq{},
		CheckpointReq{}, CrashReq{}, RestartReq{},
	}
}

// AllResponses enumerates one zero value of every response type a node can
// return. The TCP wire codec (internal/netsim/tcp) has a frame tag for
// each, and its round-trip test walks both lists.
func AllResponses() []any {
	return []any{
		InsertResult{}, DeleteResult{}, RowsResult{}, Probed{},
		GIDeleted{}, GIDeletedBatch{}, GILenResult{}, GIScanResult{},
		GIRows{}, LocalJoinResult{}, PromoteResult{}, GIScrubbed{},
		FragInfoResult{}, SeqQueryResult{}, InDoubtResult{},
		CheckpointResult{}, RestartResult{}, storage.Counts{}, Ack{},
	}
}
