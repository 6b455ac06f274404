package tcp

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"joinview/internal/expr"
	"joinview/internal/node"
	"joinview/internal/types"
)

// everyExprKind is a predicate holding one node of every expr kind.
var everyExprKind expr.Expr = expr.Or{Terms: []expr.Expr{
	expr.And{Terms: []expr.Expr{
		expr.Cmp{Op: expr.GE, L: expr.Col{Name: "k"}, R: expr.Const{V: types.Int(-3)}},
		expr.Cmp{Op: expr.NE, L: expr.Const{V: types.String("x")}, R: expr.Col{Name: "s"}},
	}},
	expr.Not{E: expr.Cmp{Op: expr.EQ, L: expr.Col{Name: "f"}, R: expr.Const{V: types.Float(2.5)}}},
	expr.Cmp{Op: expr.LT, L: expr.Col{Name: "n"}, R: expr.Const{V: types.Null()}},
}}

// filler sets every field of a wire type to a non-zero value, so a field
// the codec forgets shows up as a round-trip difference.
type filler struct{ n int64 }

func (f *filler) next() int64 { f.n++; return f.n }

var (
	valueType = reflect.TypeOf(types.Value{})
	exprType  = reflect.TypeOf((*expr.Expr)(nil)).Elem()
)

func (f *filler) fill(v reflect.Value) {
	switch v.Type() {
	case valueType:
		vals := []types.Value{types.Int(-f.next()), types.Float(float64(f.next()) + 0.25), types.String("v"), types.Int(f.next() << 40)}
		v.Set(reflect.ValueOf(vals[f.next()%int64(len(vals))]))
		return
	case exprType:
		v.Set(reflect.ValueOf(everyExprKind))
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i))
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 3, 3)
		for i := 0; i < s.Len(); i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		f.fill(p.Elem())
		v.Set(p)
	case reflect.Interface:
		// Seq.Req and SeqQueryResult.Resp: nest a filled message.
		v.Set(reflect.ValueOf(filled(node.Insert{})))
	case reflect.String:
		v.SetString("s" + string(rune('a'+f.next()%26)))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-f.next() << 20)
	case reflect.Uint8: // Algo and Kind are small enums
		v.SetUint(uint64(1 + f.next()%3))
	case reflect.Uint, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(f.next()) << 33)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(f.next()) + 0.5)
	default:
		panic("filler: unhandled kind " + v.Kind().String())
	}
}

// filled returns a copy of the zero message proto with every field set.
func filled(proto any) any {
	v := reflect.New(reflect.TypeOf(proto)).Elem()
	(&filler{}).fill(v)
	return v.Interface()
}

func roundTrip(t *testing.T, msg any) {
	t.Helper()
	frame, err := appendFrame(nil, msg)
	if err != nil {
		t.Fatalf("%T: encode: %v", msg, err)
	}
	got, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("%T: decode: %v", msg, err)
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("%T did not survive the wire\nsent %#v\ngot  %#v", msg, msg, got)
	}
}

// TestCodecRoundTripsEveryMessage encodes and decodes every request and
// response type the node protocol lists, with every field non-zero: a new
// type or field without a codec case fails here.
func TestCodecRoundTripsEveryMessage(t *testing.T) {
	var all []any
	all = append(all, node.AllRequests()...)
	all = append(all, node.AllResponses()...)
	for _, proto := range all {
		msg := filled(proto)
		if v := reflect.ValueOf(msg); v.NumField() > 0 && v.IsZero() {
			t.Fatalf("%T: filler left the message zero", msg)
		}
		roundTrip(t, msg)
		roundTrip(t, proto) // zero values too: nil slices and schema stay nil
		if node.IsMutating(proto) {
			roundTrip(t, node.Seq{ID: 9, TID: 4, Req: msg})
		}
	}
	for _, resp := range node.AllResponses() {
		roundTrip(t, node.SeqQueryResult{Applied: true, Resp: filled(resp)})
	}
	roundTrip(t, node.SeqQueryResult{})
	roundTrip(t, remoteError("node 3: boom"))
	roundTrip(t, nil)
	// Nil and empty Sources count messages differently; both survive.
	roundTrip(t, node.GIDeleteBatch{GI: "g", Sources: []int32{}})
}

func TestCodecRejectsUnknownTypes(t *testing.T) {
	type alien struct{}
	for _, msg := range []any{alien{}, node.FindMatching{Pred: alienExpr{}}, node.Seq{Req: alien{}}} {
		if _, err := appendFrame(nil, msg); !errors.Is(err, errUnencodable) {
			t.Errorf("%#v: got %v, want errUnencodable", msg, err)
		}
	}
}

type alienExpr struct{ expr.Col }

// TestDecodedTuplesDoNotAlias: tuples decoded from one slab are
// capacity-capped, so appending to one leaves its neighbour intact.
func TestDecodedTuplesDoNotAlias(t *testing.T) {
	frame, err := appendFrame(nil, node.RowsResult{Tuples: []types.Tuple{
		{types.Int(1), types.Int(2)}, {types.Int(3)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	ts := got.(node.RowsResult).Tuples
	_ = append(ts[0], types.Int(99))
	if !ts[1].Equal(types.Tuple{types.Int(3)}) {
		t.Fatalf("append to tuple 0 clobbered tuple 1: %v", ts[1])
	}
}

// TestDecodeRejectsCorruptFrames: every strict prefix of a valid frame,
// and every single-byte corruption of it, returns an error or a message —
// never a panic — and a prefix is always an error, as is nesting past
// maxDepth.
func TestDecodeRejectsCorruptFrames(t *testing.T) {
	frame, err := appendFrame(nil, node.Seq{ID: 1, Req: filled(node.AggApply{})})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(frame); n++ {
		if _, err := decodeFrame(frame[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(frame))
		}
	}
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0xff
		_, _ = decodeFrame(bad)
	}
	var deep any = node.Ping{}
	for i := 0; i <= maxDepth; i++ {
		deep = node.Seq{Req: deep}
	}
	if frame, err = appendFrame(nil, deep); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeFrame(frame); err == nil {
		t.Fatalf("a message nested %d deep decoded without error", maxDepth+1)
	}
}

// FuzzDecodeFrame: arbitrary bytes decode to an error or a message, never
// a panic, and a decoded message re-encodes to a canonical frame that
// decodes and re-encodes to the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	for _, proto := range append(node.AllRequests(), node.AllResponses()...) {
		frame, err := appendFrame(nil, filled(proto))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{0, 0, 0, 3, tagRowsResult, 0xff, 0x7f}) // huge count
	f.Fuzz(func(t *testing.T, frame []byte) {
		msg, err := decodeFrame(frame)
		if err != nil {
			return
		}
		again, err := appendFrame(nil, msg)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", msg, err)
		}
		back, err := decodeFrame(again)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		third, err := appendFrame(nil, back)
		if err != nil || !bytes.Equal(third, again) {
			t.Fatalf("re-encoding is not stable (%v)\nfirst  %x\nsecond %x", err, again, third)
		}
	})
}
