package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary row format, used for index keys and page storage:
//
//	value := kind(1) payload
//	  int    -> order-preserving big-endian uint64 (sign bit flipped)
//	  float  -> order-preserving big-endian encoding of IEEE-754 bits
//	  string -> uvarint length + bytes
//	tuple := count(uvarint) value*
//
// Integer and float payloads are encoded so that bytewise comparison of two
// encoded values of the same kind matches Compare; B+-tree keys exploit this.

// AppendValue appends the binary encoding of v to dst and returns the
// extended slice.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindNull:
	case KindInt:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.I)^(1<<63))
		dst = append(dst, b[:]...)
	case KindFloat:
		bits := math.Float64bits(v.F)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip all bits
		} else {
			bits |= 1 << 63 // positive: flip sign bit
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
		dst = append(dst, b[:]...)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		dst = append(dst, v.S...)
	}
	return dst
}

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Value{}, 0, fmt.Errorf("types: decode value: empty input")
	}
	k := Kind(b[0])
	switch k {
	case KindNull:
		return Value{}, 1, nil
	case KindInt:
		if len(b) < 9 {
			return Value{}, 0, fmt.Errorf("types: decode int: short input (%d bytes)", len(b))
		}
		u := binary.BigEndian.Uint64(b[1:9]) ^ (1 << 63)
		return Int(int64(u)), 9, nil
	case KindFloat:
		if len(b) < 9 {
			return Value{}, 0, fmt.Errorf("types: decode float: short input (%d bytes)", len(b))
		}
		bits := binary.BigEndian.Uint64(b[1:9])
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return Float(math.Float64frombits(bits)), 9, nil
	case KindString:
		n, sz := binary.Uvarint(b[1:])
		if sz <= 0 {
			return Value{}, 0, fmt.Errorf("types: decode string: bad length prefix")
		}
		start := 1 + sz
		if n > uint64(len(b)-start) {
			return Value{}, 0, fmt.Errorf("types: decode string: short input (want %d bytes, have %d)", n, len(b)-start)
		}
		end := start + int(n)
		return String(string(b[start:end])), end, nil
	default:
		return Value{}, 0, fmt.Errorf("types: decode: unknown kind %d", b[0])
	}
}

// EncodeKey encodes a single value as an order-preserving index key.
func EncodeKey(v Value) []byte { return AppendValue(nil, v) }

// AppendTuple appends the binary encoding of t to dst.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = AppendValue(dst, v)
	}
	return dst
}

// EncodeTuple encodes a tuple into a fresh byte slice.
func EncodeTuple(t Tuple) []byte { return AppendTuple(nil, t) }

// DecodeTuple decodes a tuple from b, returning it and the bytes consumed.
func DecodeTuple(b []byte) (Tuple, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("types: decode tuple: bad count prefix")
	}
	off := sz
	t := make(Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		v, used, err := DecodeValue(b[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("types: decode tuple value %d: %w", i, err)
		}
		t = append(t, v)
		off += used
	}
	return t, off, nil
}
