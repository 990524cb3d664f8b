package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"

	"repro/internal/table"
)

// Normalized sort keys. AppendSortKey encodes a tuple's sort columns into a
// byte string whose bytes.Compare order equals table.CompareOn order, so
// run generation and the merge compare memory instead of walking 40-byte
// table.Values through a comparator. Per column, in sort-column order:
//
//	NULL    0x00                                  (sorts before any value)
//	int     0x01, big-endian uint64(I) ^ 1<<63    (9 bytes; bool likewise)
//	float   0x01, IEEE-754 bits, all flipped when negative, sign bit
//	        flipped otherwise; -0 is encoded as +0 (table.Compare treats
//	        them equal)                           (9 bytes)
//	string  0x01, the bytes with 0x00 → 0x00 0xFF, terminator 0x00 0x00
//	        (a string that is a prefix of another sorts first)
//
// The encoding is prefix-free: of two distinct keys over the same columns
// neither is a prefix of the other.
//
// The value tag does not name the kind, so the equivalence with
// table.Compare holds only while every sort column carries one Kind (plus
// NULLs): table.Compare orders int against float numerically, which no
// tagged byte encoding reproduces past 2^53. The key sorter, which encodes
// column vectors, relies on every vector holding one kind: rows are
// kind-checked where they enter the engine (table.Schema.Check).
// NaN, which table.Compare leaves unordered, sorts after +Inf (before -Inf
// when its sign bit is set).

const (
	keyTagNull  = 0x00
	keyTagValue = 0x01
)

// AppendSortKey appends the normalized key of t's columns cols to dst.
func AppendSortKey(dst []byte, t table.Tuple, cols []int) []byte {
	for _, c := range cols {
		dst = appendValueKey(dst, &t[c])
	}
	return dst
}

func appendValueKey(dst []byte, v *table.Value) []byte {
	switch v.Kind {
	case table.KindNull:
		return append(dst, keyTagNull)
	case table.KindInt, table.KindBool:
		return binary.BigEndian.AppendUint64(append(dst, keyTagValue), uint64(v.I)^(1<<63))
	case table.KindFloat:
		return binary.BigEndian.AppendUint64(append(dst, keyTagValue), floatKeyBits(v.F))
	default: // KindString
		return appendStringKey(append(dst, keyTagValue), v.S)
	}
}

// AppendColSortKey is AppendSortKey reading physical row `row` of a column
// batch instead of a tuple: byte for byte the key of the materialized row,
// whichever layout each column is in — typed ints, floats and bools, string
// headers, dictionary codes, flat bytes, the null bitmap — without boxing a
// cell.
func AppendColSortKey(dst []byte, b *table.ColBatch, row int, cols []int) []byte {
	for _, c := range cols {
		v := &b.Cols[c]
		if v.Null(row) {
			dst = append(dst, keyTagNull)
			continue
		}
		dst = append(dst, keyTagValue)
		switch v.Kind {
		case table.KindInt, table.KindBool:
			dst = binary.BigEndian.AppendUint64(dst, uint64(v.Ints[row])^(1<<63))
		case table.KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, floatKeyBits(v.Floats[row]))
		default: // KindString
			switch v.Mode {
			case table.StrDict:
				dst = appendStringKey(dst, v.Dict[v.Codes[row]])
			case table.StrHeader:
				dst = appendStringKey(dst, v.Strs[row])
			default:
				dst = appendBytesKey(dst, v.Bytes[v.Offs[row]:v.Offs[row+1]])
			}
		}
	}
	return dst
}

// floatKeyBits maps a float to a uint64 ordered like the float.
func floatKeyBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b == 1<<63 {
		b = 0 // -0 → +0
	}
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

func appendStringKey(dst []byte, s string) []byte {
	for {
		i := strings.IndexByte(s, 0)
		if i < 0 {
			break
		}
		dst = append(dst, s[:i]...)
		dst = append(dst, 0x00, 0xFF)
		s = s[i+1:]
	}
	dst = append(dst, s...)
	return append(dst, 0x00, 0x00)
}

// appendBytesKey is appendStringKey for a flat-layout cell's raw bytes.
func appendBytesKey(dst, s []byte) []byte {
	for {
		i := bytes.IndexByte(s, 0)
		if i < 0 {
			break
		}
		dst = append(dst, s[:i]...)
		dst = append(dst, 0x00, 0xFF)
		s = s[i+1:]
	}
	dst = append(dst, s...)
	return append(dst, 0x00, 0x00)
}
