package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"joinview/internal/expr"
	"joinview/internal/node"
	"joinview/internal/storage"
	"joinview/internal/types"
)

// Wire format. Every request, response and flattened handler error
// crosses the socket as one frame:
//
//	frame := length(4, big-endian) msg        length counts msg's bytes
//	msg   := tag(1) field*                     one tag per node type
//	field := uvarint | varint | bool(1) | float(8) | string | value | ...
//
// Unsigned integers are uvarints, signed ones zig-zag varints, strings a
// uvarint length then the bytes, and values and tuples the types package's
// binary row codec (types.AppendValue / AppendTuple). A slice is a uvarint
// count then its elements; a tuple slice also carries its total value count
// so the decoder fills one backing slab. Seq and SeqQueryResult nest a msg;
// FindMatching's predicate is an expr tree with one tag per node kind. A
// handler error travels as tagErr plus its message.
//
// Decoding never trusts a count: every count is checked against the bytes
// left in the frame (each element takes at least one), so a frame cannot
// make the decoder allocate more than a constant factor of its length.

// maxFrame bounds a frame's declared length (a corrupt length prefix must
// not make the reader allocate gigabytes).
const maxFrame = 1 << 30

// maxDepth bounds msg and expr nesting on decode.
const maxDepth = 64

// Message tags. The numbering is the wire contract between the two ends of
// one connection, which always run the same binary; it is not a stable
// storage format.
const (
	tagNil byte = iota
	tagErr

	tagSeq
	tagSeqQuery
	tagPing
	tagCreateFragment
	tagCreateIndex
	tagCreateGlobalIndex
	tagInsert
	tagDeleteRows
	tagRestoreRows
	tagDeleteMatch
	tagLocateMatch
	tagProbe
	tagFetchJoin
	tagFindMatching
	tagGIInsert
	tagGIInsertBatch
	tagGIDelete
	tagGIDeleteBatch
	tagGILookup
	tagGILen
	tagGIScan
	tagScan
	tagAllRows
	tagScanWithRows
	tagAggApply
	tagDropFragment
	tagDropGlobalIndexFrag
	tagLocalJoin
	tagPromoteSlots
	tagGIPromoteSlots
	tagGIScrubNode
	tagFragInfo
	tagMeterSnapshot
	tagResetMeter
	tagPrepare
	tagDecide
	tagResolveAbort
	tagInDoubtReq
	tagCheckpointReq
	tagCrashReq
	tagRestartReq

	tagInsertResult
	tagDeleteResult
	tagRowsResult
	tagProbed
	tagGIDeleted
	tagGIDeletedBatch
	tagGILenResult
	tagGIScanResult
	tagGIRows
	tagLocalJoinResult
	tagPromoteResult
	tagGIScrubbed
	tagFragInfoResult
	tagSeqQueryResult
	tagInDoubtResult
	tagCheckpointResult
	tagRestartResult
	tagCounts
	tagAck
)

// Predicate node tags.
const (
	exprNil byte = iota
	exprCol
	exprConst
	exprCmp
	exprAnd
	exprOr
	exprNot
)

// errUnencodable marks an encoding failure: the message holds a type the
// codec has no case for, or its frame is too large. Nothing was written.
var errUnencodable = errors.New("not encodable")

// remoteError is a handler error flattened to its message for the wire.
type remoteError string

func (e remoteError) Error() string { return string(e) }

// appendFrame appends v as one frame (length prefix, then msg) to dst.
func appendFrame(dst []byte, v any) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err := appendMsg(dst, v)
	if err != nil {
		return dst[:start], err
	}
	n := len(dst) - start - 4
	if n > maxFrame {
		return dst[:start], fmt.Errorf("tcp: encode %T: frame of %d bytes exceeds %d: %w", v, n, maxFrame, errUnencodable)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// decodeFrame decodes one whole frame: a length prefix matching the bytes
// that follow, then exactly one msg.
func decodeFrame(frame []byte) (any, error) {
	if len(frame) < 4 {
		return nil, fmt.Errorf("tcp: decode: short frame (%d bytes)", len(frame))
	}
	if n := binary.BigEndian.Uint32(frame); uint64(n) != uint64(len(frame)-4) {
		return nil, fmt.Errorf("tcp: decode: length prefix %d, frame body %d bytes", n, len(frame)-4)
	}
	d := decoder{b: frame[4:]}
	v := d.msg()
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return v, nil
}

// appendMsg appends v's tag and fields.
func appendMsg(b []byte, v any) ([]byte, error) {
	var err error
	switch m := v.(type) {
	case nil:
		b = append(b, tagNil)
	case remoteError:
		b = appendStr(append(b, tagErr), string(m))

	case node.Seq:
		b = append(b, tagSeq)
		b = binary.AppendUvarint(b, m.ID)
		b = binary.AppendUvarint(b, m.TID)
		b, err = appendMsg(b, m.Req)
	case node.SeqQuery:
		b = binary.AppendUvarint(append(b, tagSeqQuery), m.ID)
	case node.Ping:
		b = append(b, tagPing)
	case node.CreateFragment:
		b = appendStr(append(b, tagCreateFragment), m.Name)
		b = appendSchema(b, m.Schema)
		b = appendStr(b, m.ClusterCol)
		b = binary.AppendVarint(b, int64(m.PageRows))
	case node.CreateIndex:
		b = appendStr(append(b, tagCreateIndex), m.Frag)
		b = appendStr(b, m.Name)
		b = appendStr(b, m.Col)
	case node.CreateGlobalIndex:
		b = appendStr(append(b, tagCreateGlobalIndex), m.Name)
		b = appendBool(b, m.DistClustered)
	case node.Insert:
		b = appendStr(append(b, tagInsert), m.Frag)
		b = appendTuples(b, m.Tuples)
		b = appendBool(b, m.Unmetered)
		b = appendEpochs(b, m.Epoch, m.GCFloor)
	case node.DeleteRows:
		b = appendStr(append(b, tagDeleteRows), m.Frag)
		b = appendRows(b, m.Rows)
		b = appendEpochs(b, m.Epoch, m.GCFloor)
	case node.RestoreRows:
		b = appendStr(append(b, tagRestoreRows), m.Frag)
		b = appendRows(b, m.Rows)
		b = appendTuples(b, m.Tuples)
		b = appendEpochs(b, m.Epoch, m.GCFloor)
	case node.DeleteMatch:
		b = appendStr(append(b, tagDeleteMatch), m.Frag)
		b = appendStr(b, m.HintCol)
		b = appendTuples(b, m.Tuples)
		b = appendEpochs(b, m.Epoch, m.GCFloor)
	case node.LocateMatch:
		b = appendStr(append(b, tagLocateMatch), m.Frag)
		b = appendStr(b, m.HintCol)
		b = appendTuples(b, m.Tuples)
	case node.Probe:
		b = appendStr(append(b, tagProbe), m.Frag)
		b = appendStr(b, m.FragCol)
		b = appendTuples(b, m.Delta)
		b = binary.AppendVarint(b, int64(m.DeltaKey))
		b = append(b, byte(m.Algo))
		b = appendFloat(b, m.FanoutHint)
	case node.FetchJoin:
		b = appendStr(append(b, tagFetchJoin), m.Frag)
		b = appendStr(b, m.FragCol)
		b = appendRows(b, m.Rows)
		b = types.AppendTuple(b, m.Delta)
	case node.FindMatching:
		b = appendStr(append(b, tagFindMatching), m.Frag)
		b, err = appendExpr(b, m.Pred)
	case node.GIInsert:
		b = appendStr(append(b, tagGIInsert), m.GI)
		b = types.AppendValue(b, m.Val)
		b = appendGID(b, m.G)
	case node.GIInsertBatch:
		b = appendStr(append(b, tagGIInsertBatch), m.GI)
		b = appendValues(b, m.Vals)
		b = appendGIDs(b, m.Gs)
		b = appendBool(b, m.Metered)
		b = appendSources(b, m.Sources)
	case node.GIDelete:
		b = appendStr(append(b, tagGIDelete), m.GI)
		b = types.AppendValue(b, m.Val)
		b = appendGID(b, m.G)
	case node.GIDeleteBatch:
		b = appendStr(append(b, tagGIDeleteBatch), m.GI)
		b = appendValues(b, m.Vals)
		b = appendGIDs(b, m.Gs)
		b = appendSources(b, m.Sources)
	case node.GILookup:
		b = appendStr(append(b, tagGILookup), m.GI)
		b = types.AppendValue(b, m.Val)
	case node.GILen:
		b = appendStr(append(b, tagGILen), m.GI)
	case node.GIScan:
		b = appendStr(append(b, tagGIScan), m.GI)
	case node.Scan:
		b = appendStr(append(b, tagScan), m.Frag)
		b = binary.AppendUvarint(b, m.Epoch)
	case node.AllRows:
		b = appendStr(append(b, tagAllRows), m.Frag)
		b = binary.AppendUvarint(b, m.Epoch)
	case node.ScanWithRows:
		b = appendStr(append(b, tagScanWithRows), m.Frag)
	case node.AggApply:
		b = appendStr(append(b, tagAggApply), m.Frag)
		b = appendStr(b, m.HintCol)
		b = binary.AppendVarint(b, int64(m.GroupLen))
		b = binary.AppendVarint(b, int64(m.CountPos))
		b = appendTuples(b, m.Keys)
		b = appendTuples(b, m.Deltas)
		b = appendEpochs(b, m.Epoch, m.GCFloor)
	case node.DropFragment:
		b = appendStr(append(b, tagDropFragment), m.Name)
	case node.DropGlobalIndexFrag:
		b = appendStr(append(b, tagDropGlobalIndexFrag), m.Name)
	case node.LocalJoin:
		b = appendStr(append(b, tagLocalJoin), m.Left)
		b = appendStr(b, m.Right)
		b = appendStr(b, m.LeftCol)
		b = appendStr(b, m.RightCol)
		b = appendStr(b, m.Out)
		b = appendEpochs(b, m.LeftEpoch, m.RightEpoch)
	case node.PromoteSlots:
		b = appendStr(append(b, tagPromoteSlots), m.Src)
		b = appendStr(b, m.Dst)
		b = binary.AppendVarint(b, int64(m.PartIdx))
		b = binary.AppendVarint(b, int64(m.Mod))
		b = appendInts(b, m.Slots)
	case node.GIPromoteSlots:
		b = appendStr(append(b, tagGIPromoteSlots), m.Src)
		b = appendStr(b, m.Dst)
		b = binary.AppendVarint(b, int64(m.Mod))
		b = appendInts(b, m.Slots)
	case node.GIScrubNode:
		b = appendStr(append(b, tagGIScrubNode), m.GI)
		b = binary.AppendVarint(b, int64(m.Node))
	case node.FragInfo:
		b = appendStr(append(b, tagFragInfo), m.Frag)
	case node.MeterSnapshot:
		b = append(b, tagMeterSnapshot)
	case node.ResetMeter:
		b = append(b, tagResetMeter)
	case node.Prepare:
		b = binary.AppendUvarint(append(b, tagPrepare), m.TID)
	case node.Decide:
		b = binary.AppendUvarint(append(b, tagDecide), m.TID)
		b = appendBool(b, m.Commit)
	case node.ResolveAbort:
		b = binary.AppendUvarint(append(b, tagResolveAbort), m.TID)
	case node.InDoubtReq:
		b = append(b, tagInDoubtReq)
	case node.CheckpointReq:
		b = append(b, tagCheckpointReq)
	case node.CrashReq:
		b = append(b, tagCrashReq)
	case node.RestartReq:
		b = append(b, tagRestartReq)

	case node.InsertResult:
		b = appendRows(append(b, tagInsertResult), m.Rows)
	case node.DeleteResult:
		b = appendTuples(append(b, tagDeleteResult), m.Tuples)
		b = appendRows(b, m.Rows)
	case node.RowsResult:
		b = appendTuples(append(b, tagRowsResult), m.Tuples)
		b = appendRows(b, m.Rows)
	case node.Probed:
		b = appendTuples(append(b, tagProbed), m.Tuples)
	case node.GIDeleted:
		b = appendBool(append(b, tagGIDeleted), m.OK)
	case node.GIDeletedBatch:
		b = binary.AppendUvarint(append(b, tagGIDeletedBatch), uint64(len(m.OK)))
		for _, ok := range m.OK {
			b = appendBool(b, ok)
		}
	case node.GILenResult:
		b = binary.AppendVarint(append(b, tagGILenResult), int64(m.Len))
	case node.GIScanResult:
		b = appendValues(append(b, tagGIScanResult), m.Vals)
		b = appendGIDs(b, m.Gs)
	case node.GIRows:
		b = appendGIDs(append(b, tagGIRows), m.IDs)
	case node.LocalJoinResult:
		b = binary.AppendVarint(append(b, tagLocalJoinResult), int64(m.Produced))
	case node.PromoteResult:
		b = appendRows(append(b, tagPromoteResult), m.Rows)
		b = appendTuples(b, m.Tuples)
	case node.GIScrubbed:
		b = binary.AppendVarint(append(b, tagGIScrubbed), int64(m.Removed))
	case node.FragInfoResult:
		b = binary.AppendVarint(append(b, tagFragInfoResult), int64(m.Len))
		b = binary.AppendVarint(b, int64(m.Pages))
	case node.SeqQueryResult:
		b = appendBool(append(b, tagSeqQueryResult), m.Applied)
		b, err = appendMsg(b, m.Resp)
	case node.InDoubtResult:
		b = appendUints(append(b, tagInDoubtResult), m.TIDs)
	case node.CheckpointResult:
		b = binary.AppendUvarint(append(b, tagCheckpointResult), m.LSN)
		b = binary.AppendVarint(b, int64(m.Pages))
	case node.RestartResult:
		b = binary.AppendUvarint(append(b, tagRestartResult), m.CheckpointLSN)
		b = binary.AppendVarint(b, int64(m.CheckpointPages))
		b = binary.AppendVarint(b, int64(m.LogPagesRead))
		b = binary.AppendVarint(b, int64(m.RecordsReplayed))
		b = appendUints(b, m.InDoubt)
	case storage.Counts:
		b = append(b, tagCounts)
		for _, n := range [...]int64{m.Searches, m.Fetches, m.Inserts, m.Deletes, m.ScanPages, m.SortPages, m.LogPages} {
			b = binary.AppendVarint(b, n)
		}
	case node.Ack:
		b = append(b, tagAck)
	default:
		return b, fmt.Errorf("tcp: encode message type %T: %w", v, errUnencodable)
	}
	return b, err
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

func appendEpochs(b []byte, x, y uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, x), y)
}

func appendSchema(b []byte, s *types.Schema) []byte {
	if s == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(append(b, 1), uint64(len(s.Cols)))
	for _, c := range s.Cols {
		b = append(appendStr(b, c.Name), byte(c.Kind))
	}
	return b
}

// appendTuples writes a tuple slice: tuple count, total value count, then
// each tuple in the row codec.
func appendTuples(b []byte, ts []types.Tuple) []byte {
	b = binary.AppendUvarint(b, uint64(len(ts)))
	if len(ts) == 0 {
		return b
	}
	total := 0
	for _, t := range ts {
		total += len(t)
	}
	b = binary.AppendUvarint(b, uint64(total))
	for _, t := range ts {
		b = types.AppendTuple(b, t)
	}
	return b
}

func appendValues(b []byte, vs []types.Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = types.AppendValue(b, v)
	}
	return b
}

func appendRows(b []byte, rows []storage.RowID) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = binary.AppendUvarint(b, uint64(r))
	}
	return b
}

func appendGID(b []byte, g storage.GlobalRowID) []byte {
	return binary.AppendUvarint(binary.AppendVarint(b, int64(g.Node)), uint64(g.Row))
}

func appendGIDs(b []byte, gs []storage.GlobalRowID) []byte {
	b = binary.AppendUvarint(b, uint64(len(gs)))
	for _, g := range gs {
		b = appendGID(b, g)
	}
	return b
}

// appendSources writes a GI batch's Sources, keeping nil (plain physical
// delivery) distinct from empty: the two count messages differently.
func appendSources(b []byte, src []int32) []byte {
	if src == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(append(b, 1), uint64(len(src)))
	for _, s := range src {
		b = binary.AppendVarint(b, int64(s))
	}
	return b
}

func appendInts(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

func appendUints(b []byte, xs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

// appendExpr writes a predicate tree.
func appendExpr(b []byte, e expr.Expr) ([]byte, error) {
	var err error
	switch x := e.(type) {
	case nil:
		b = append(b, exprNil)
	case expr.Col:
		b = appendStr(append(b, exprCol), x.Name)
	case expr.Const:
		b = types.AppendValue(append(b, exprConst), x.V)
	case expr.Cmp:
		b = append(b, exprCmp, byte(x.Op))
		if b, err = appendExpr(b, x.L); err != nil {
			return b, err
		}
		b, err = appendExpr(b, x.R)
	case expr.And:
		b, err = appendExprs(append(b, exprAnd), x.Terms)
	case expr.Or:
		b, err = appendExprs(append(b, exprOr), x.Terms)
	case expr.Not:
		b, err = appendExpr(append(b, exprNot), x.E)
	default:
		return b, fmt.Errorf("tcp: encode predicate node %T: %w", e, errUnencodable)
	}
	return b, err
}

func appendExprs(b []byte, es []expr.Expr) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(es)))
	for _, e := range es {
		var err error
		if b, err = appendExpr(b, e); err != nil {
			return b, err
		}
	}
	return b, nil
}

// decoder reads fields off a frame body. The first failure sticks: later
// reads return zero values, and the caller checks err once at the end.
type decoder struct {
	b     []byte
	err   error
	depth int
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("tcp: decode: "+format, args...)
	}
	d.b = nil
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("short input")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) uint() uint64 {
	u, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return u
}

func (d *decoder) varint() int64 {
	i, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return i
}

func (d *decoder) int() int { return int(d.varint()) }

func (d *decoder) bool() bool {
	switch c := d.byte(); c {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool %d", c)
		return false
	}
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail("short float")
		return 0
	}
	f := math.Float64frombits(binary.BigEndian.Uint64(d.b))
	d.b = d.b[8:]
	return f
}

// count reads a slice length and checks it against the bytes left, each
// element taking at least one.
func (d *decoder) count() int {
	n := d.uint()
	if n > uint64(len(d.b)) {
		d.fail("count %d exceeds %d remaining bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count()
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) value() types.Value {
	if d.err != nil {
		return types.Value{}
	}
	v, n, err := types.DecodeValue(d.b)
	if err != nil {
		d.fail("%v", err)
		return types.Value{}
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) schema() *types.Schema {
	if !d.bool() {
		return nil
	}
	s := &types.Schema{Cols: make([]types.Column, d.count())}
	for i := range s.Cols {
		s.Cols[i] = types.Column{Name: d.str(), Kind: types.Kind(d.byte())}
	}
	if len(s.Cols) == 0 {
		s.Cols = nil
	}
	return s
}

func (d *decoder) tuple() types.Tuple {
	n := d.count()
	if n == 0 {
		return nil
	}
	t := make(types.Tuple, n)
	for i := range t {
		t[i] = d.value()
	}
	return t
}

// tuples reads a tuple slice into one backing value slab; each tuple is
// capacity-capped so appending to one cannot overwrite the next.
func (d *decoder) tuples() []types.Tuple {
	n := d.count()
	if n == 0 {
		return nil
	}
	total := d.count()
	if n+total > len(d.b) {
		d.fail("%d tuples of %d values exceed %d remaining bytes", n, total, len(d.b))
		return nil
	}
	slab := make([]types.Value, total)
	out := make([]types.Tuple, n)
	used := 0
	for i := range out {
		k := d.count()
		if k > total-used {
			d.fail("tuple of %d values overruns the slab", k)
			return nil
		}
		if k == 0 {
			continue
		}
		t := slab[used : used+k : used+k]
		for j := range t {
			t[j] = d.value()
		}
		out[i] = t
		used += k
	}
	if used != total {
		d.fail("tuples hold %d values, header says %d", used, total)
	}
	return out
}

func (d *decoder) values() []types.Value {
	n := d.count()
	if n == 0 {
		return nil
	}
	vs := make([]types.Value, n)
	for i := range vs {
		vs[i] = d.value()
	}
	return vs
}

func (d *decoder) rows() []storage.RowID {
	n := d.count()
	if n == 0 {
		return nil
	}
	rows := make([]storage.RowID, n)
	for i := range rows {
		rows[i] = storage.RowID(d.uint())
	}
	return rows
}

func (d *decoder) gid() storage.GlobalRowID {
	n := d.varint()
	if n < math.MinInt32 || n > math.MaxInt32 {
		d.fail("node id %d out of range", n)
	}
	return storage.GlobalRowID{Node: int32(n), Row: storage.RowID(d.uint())}
}

func (d *decoder) gids() []storage.GlobalRowID {
	n := d.count()
	if n == 0 {
		return nil
	}
	gs := make([]storage.GlobalRowID, n)
	for i := range gs {
		gs[i] = d.gid()
	}
	return gs
}

func (d *decoder) sources() []int32 {
	if !d.bool() {
		return nil
	}
	src := make([]int32, d.count())
	for i := range src {
		s := d.varint()
		if s < math.MinInt32 || s > math.MaxInt32 {
			d.fail("source %d out of range", s)
		}
		src[i] = int32(s)
	}
	return src
}

func (d *decoder) ints() []int {
	n := d.count()
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = d.int()
	}
	return xs
}

func (d *decoder) uints() []uint64 {
	n := d.count()
	if n == 0 {
		return nil
	}
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = d.uint()
	}
	return xs
}

func (d *decoder) bools() []bool {
	n := d.count()
	if n == 0 {
		return nil
	}
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = d.bool()
	}
	return bs
}

// msg decodes one tagged message.
func (d *decoder) msg() any {
	d.depth++
	defer func() { d.depth-- }()
	if d.depth > maxDepth {
		d.fail("nesting deeper than %d", maxDepth)
		return nil
	}
	switch tag := d.byte(); tag {
	case tagNil:
		return nil
	case tagErr:
		return remoteError(d.str())

	case tagSeq:
		return node.Seq{ID: d.uint(), TID: d.uint(), Req: d.msg()}
	case tagSeqQuery:
		return node.SeqQuery{ID: d.uint()}
	case tagPing:
		return node.Ping{}
	case tagCreateFragment:
		return node.CreateFragment{Name: d.str(), Schema: d.schema(), ClusterCol: d.str(), PageRows: d.int()}
	case tagCreateIndex:
		return node.CreateIndex{Frag: d.str(), Name: d.str(), Col: d.str()}
	case tagCreateGlobalIndex:
		return node.CreateGlobalIndex{Name: d.str(), DistClustered: d.bool()}
	case tagInsert:
		return node.Insert{Frag: d.str(), Tuples: d.tuples(), Unmetered: d.bool(), Epoch: d.uint(), GCFloor: d.uint()}
	case tagDeleteRows:
		return node.DeleteRows{Frag: d.str(), Rows: d.rows(), Epoch: d.uint(), GCFloor: d.uint()}
	case tagRestoreRows:
		return node.RestoreRows{Frag: d.str(), Rows: d.rows(), Tuples: d.tuples(), Epoch: d.uint(), GCFloor: d.uint()}
	case tagDeleteMatch:
		return node.DeleteMatch{Frag: d.str(), HintCol: d.str(), Tuples: d.tuples(), Epoch: d.uint(), GCFloor: d.uint()}
	case tagLocateMatch:
		return node.LocateMatch{Frag: d.str(), HintCol: d.str(), Tuples: d.tuples()}
	case tagProbe:
		return node.Probe{Frag: d.str(), FragCol: d.str(), Delta: d.tuples(), DeltaKey: d.int(),
			Algo: node.Algo(d.byte()), FanoutHint: d.float()}
	case tagFetchJoin:
		return node.FetchJoin{Frag: d.str(), FragCol: d.str(), Rows: d.rows(), Delta: d.tuple()}
	case tagFindMatching:
		return node.FindMatching{Frag: d.str(), Pred: d.expr()}
	case tagGIInsert:
		return node.GIInsert{GI: d.str(), Val: d.value(), G: d.gid()}
	case tagGIInsertBatch:
		return node.GIInsertBatch{GI: d.str(), Vals: d.values(), Gs: d.gids(), Metered: d.bool(), Sources: d.sources()}
	case tagGIDelete:
		return node.GIDelete{GI: d.str(), Val: d.value(), G: d.gid()}
	case tagGIDeleteBatch:
		return node.GIDeleteBatch{GI: d.str(), Vals: d.values(), Gs: d.gids(), Sources: d.sources()}
	case tagGILookup:
		return node.GILookup{GI: d.str(), Val: d.value()}
	case tagGILen:
		return node.GILen{GI: d.str()}
	case tagGIScan:
		return node.GIScan{GI: d.str()}
	case tagScan:
		return node.Scan{Frag: d.str(), Epoch: d.uint()}
	case tagAllRows:
		return node.AllRows{Frag: d.str(), Epoch: d.uint()}
	case tagScanWithRows:
		return node.ScanWithRows{Frag: d.str()}
	case tagAggApply:
		return node.AggApply{Frag: d.str(), HintCol: d.str(), GroupLen: d.int(), CountPos: d.int(),
			Keys: d.tuples(), Deltas: d.tuples(), Epoch: d.uint(), GCFloor: d.uint()}
	case tagDropFragment:
		return node.DropFragment{Name: d.str()}
	case tagDropGlobalIndexFrag:
		return node.DropGlobalIndexFrag{Name: d.str()}
	case tagLocalJoin:
		return node.LocalJoin{Left: d.str(), Right: d.str(), LeftCol: d.str(), RightCol: d.str(), Out: d.str(),
			LeftEpoch: d.uint(), RightEpoch: d.uint()}
	case tagPromoteSlots:
		return node.PromoteSlots{Src: d.str(), Dst: d.str(), PartIdx: d.int(), Mod: d.int(), Slots: d.ints()}
	case tagGIPromoteSlots:
		return node.GIPromoteSlots{Src: d.str(), Dst: d.str(), Mod: d.int(), Slots: d.ints()}
	case tagGIScrubNode:
		return node.GIScrubNode{GI: d.str(), Node: d.int()}
	case tagFragInfo:
		return node.FragInfo{Frag: d.str()}
	case tagMeterSnapshot:
		return node.MeterSnapshot{}
	case tagResetMeter:
		return node.ResetMeter{}
	case tagPrepare:
		return node.Prepare{TID: d.uint()}
	case tagDecide:
		return node.Decide{TID: d.uint(), Commit: d.bool()}
	case tagResolveAbort:
		return node.ResolveAbort{TID: d.uint()}
	case tagInDoubtReq:
		return node.InDoubtReq{}
	case tagCheckpointReq:
		return node.CheckpointReq{}
	case tagCrashReq:
		return node.CrashReq{}
	case tagRestartReq:
		return node.RestartReq{}

	case tagInsertResult:
		return node.InsertResult{Rows: d.rows()}
	case tagDeleteResult:
		return node.DeleteResult{Tuples: d.tuples(), Rows: d.rows()}
	case tagRowsResult:
		return node.RowsResult{Tuples: d.tuples(), Rows: d.rows()}
	case tagProbed:
		return node.Probed{Tuples: d.tuples()}
	case tagGIDeleted:
		return node.GIDeleted{OK: d.bool()}
	case tagGIDeletedBatch:
		return node.GIDeletedBatch{OK: d.bools()}
	case tagGILenResult:
		return node.GILenResult{Len: d.int()}
	case tagGIScanResult:
		return node.GIScanResult{Vals: d.values(), Gs: d.gids()}
	case tagGIRows:
		return node.GIRows{IDs: d.gids()}
	case tagLocalJoinResult:
		return node.LocalJoinResult{Produced: d.int()}
	case tagPromoteResult:
		return node.PromoteResult{Rows: d.rows(), Tuples: d.tuples()}
	case tagGIScrubbed:
		return node.GIScrubbed{Removed: d.int()}
	case tagFragInfoResult:
		return node.FragInfoResult{Len: d.int(), Pages: d.int()}
	case tagSeqQueryResult:
		return node.SeqQueryResult{Applied: d.bool(), Resp: d.msg()}
	case tagInDoubtResult:
		return node.InDoubtResult{TIDs: d.uints()}
	case tagCheckpointResult:
		return node.CheckpointResult{LSN: d.uint(), Pages: d.int()}
	case tagRestartResult:
		return node.RestartResult{CheckpointLSN: d.uint(), CheckpointPages: d.int(), LogPagesRead: d.int(),
			RecordsReplayed: d.int(), InDoubt: d.uints()}
	case tagCounts:
		return storage.Counts{Searches: d.varint(), Fetches: d.varint(), Inserts: d.varint(), Deletes: d.varint(),
			ScanPages: d.varint(), SortPages: d.varint(), LogPages: d.varint()}
	case tagAck:
		return node.Ack{}
	default:
		d.fail("unknown message tag %d", tag)
		return nil
	}
}

// expr decodes one predicate node.
func (d *decoder) expr() expr.Expr {
	d.depth++
	defer func() { d.depth-- }()
	if d.depth > maxDepth {
		d.fail("nesting deeper than %d", maxDepth)
		return nil
	}
	switch tag := d.byte(); tag {
	case exprNil:
		return nil
	case exprCol:
		return expr.Col{Name: d.str()}
	case exprConst:
		return expr.Const{V: d.value()}
	case exprCmp:
		op := expr.CmpOp(d.byte())
		if op > expr.GE {
			d.fail("unknown comparison %d", op)
			return nil
		}
		return expr.Cmp{Op: op, L: d.expr(), R: d.expr()}
	case exprAnd:
		return expr.And{Terms: d.exprs()}
	case exprOr:
		return expr.Or{Terms: d.exprs()}
	case exprNot:
		return expr.Not{E: d.expr()}
	default:
		d.fail("unknown predicate tag %d", tag)
		return nil
	}
}

func (d *decoder) exprs() []expr.Expr {
	n := d.count()
	if n == 0 {
		return nil
	}
	es := make([]expr.Expr, n)
	for i := range es {
		es[i] = d.expr()
	}
	return es
}
