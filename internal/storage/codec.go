// Package storage provides the secondary-storage substrate underneath the
// query engine: binary tuple serialization, 8 KiB slotted pages, heap files,
// a pinning LRU buffer pool, and an external merge sort. The paper's
// operator is explicitly a *secondary-storage* operator (§V): answer tuples
// are sorted (spilling to disk when large) and then consumed in sequential
// scans; this package supplies those mechanics. The sort (extsort.go) is fed
// as a stream — tuples, or whole column batches — and owns its run: rows are
// copied into a budget-bounded column buffer that every run of a sort
// reuses, keys are encoded from the buffer's column vectors (sortkey.go),
// and what a sort holds in memory is set by its tuple budget, never by the
// size of its input.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/table"
)

// EncodeTuple appends the binary encoding of a tuple to dst. The format is
// self-describing: a uvarint field count, then per field a kind byte and a
// kind-specific payload (varint for ints/bools, fixed 8 bytes for floats,
// uvarint-length-prefixed bytes for strings).
func EncodeTuple(dst []byte, t table.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = append(dst, byte(v.Kind))
		switch v.Kind {
		case table.KindNull:
		case table.KindInt, table.KindBool:
			dst = binary.AppendVarint(dst, v.I)
		case table.KindFloat:
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
			dst = append(dst, buf[:]...)
		case table.KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		default:
			panic(fmt.Sprintf("storage: cannot encode kind %v", v.Kind))
		}
	}
	return dst
}

// RawField is one field of an encoded record exposed without building a
// table.Value: the kind tag plus the kind's raw payload. S aliases the
// record buffer — valid only as long as the record itself.
type RawField struct {
	Kind table.Kind
	I    int64
	F    float64
	S    []byte
}

// FieldIter steps through the fields of one encoded record — the columnar
// decode path, which appends each field straight onto a column vector
// instead of materializing a tuple (and so never allocates a per-row
// string).
type FieldIter struct {
	buf []byte
	off int
	n   int
	i   int
}

// NewFieldIter positions an iterator at the first field of the record.
func NewFieldIter(buf []byte) (FieldIter, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return FieldIter{}, fmt.Errorf("storage: corrupt tuple header")
	}
	return FieldIter{buf: buf, off: sz, n: int(n)}, nil
}

// Len returns the record's field count.
func (it *FieldIter) Len() int { return it.n }

// Next decodes the next field (ok=false after the last).
func (it *FieldIter) Next() (RawField, bool, error) {
	if it.i >= it.n {
		return RawField{}, false, nil
	}
	buf, off := it.buf, it.off
	if off >= len(buf) {
		return RawField{}, false, fmt.Errorf("storage: truncated tuple at field %d", it.i)
	}
	kind := table.Kind(buf[off])
	off++
	f := RawField{Kind: kind}
	switch kind {
	case table.KindNull:
	case table.KindInt, table.KindBool:
		iv, s := binary.Varint(buf[off:])
		if s <= 0 {
			return RawField{}, false, fmt.Errorf("storage: corrupt int field %d", it.i)
		}
		off += s
		f.I = iv
	case table.KindFloat:
		if off+8 > len(buf) {
			return RawField{}, false, fmt.Errorf("storage: truncated float field %d", it.i)
		}
		f.F = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	case table.KindString:
		l, s := binary.Uvarint(buf[off:])
		if s <= 0 || off+s+int(l) > len(buf) {
			return RawField{}, false, fmt.Errorf("storage: corrupt string field %d", it.i)
		}
		off += s
		f.S = buf[off : off+int(l)]
		off += int(l)
	default:
		return RawField{}, false, fmt.Errorf("storage: unknown kind byte %d in field %d", kind, it.i)
	}
	it.off = off
	it.i++
	return f, true, nil
}

// Value materializes a raw field as a table.Value (copying string bytes).
func (f RawField) Value() table.Value {
	switch f.Kind {
	case table.KindNull:
		return table.Null()
	case table.KindInt, table.KindBool:
		return table.Value{Kind: f.Kind, I: f.I}
	case table.KindFloat:
		return table.Float(f.F)
	case table.KindString:
		return table.Str(string(f.S))
	default:
		return table.Null()
	}
}

// DecodeTupleArena decodes one tuple from buf, returning the tuple and the
// number of bytes consumed. It draws the tuple's value storage from arena
// when it fits (returning the shrunk remainder), and allocates fresh storage
// otherwise. Scanners pass a block-sized arena so a sequential scan
// pays one value-slice allocation per ~4k values instead of one per tuple;
// the decoded tuples stay valid forever (arena blocks are never reused).
func DecodeTupleArena(buf []byte, arena []table.Value) (table.Tuple, []table.Value, int, error) {
	n, off, err := tupleHeader(buf)
	if err != nil {
		return nil, arena, 0, err
	}
	var t table.Tuple
	if n <= len(arena) {
		t = table.Tuple(arena[:n:n])
		arena = arena[n:]
	} else {
		t = make(table.Tuple, n)
	}
	off, err = decodeFields(buf, off, t)
	if err != nil {
		return nil, arena, 0, err
	}
	return t, arena, off, nil
}

// tupleHeader reads a record's field count and returns it with the offset
// of the first field.
func tupleHeader(buf []byte) (n, off int, err error) {
	un, sz := binary.Uvarint(buf)
	if sz <= 0 || un > uint64(len(buf)) { // every field takes at least its kind byte
		return 0, 0, fmt.Errorf("storage: corrupt tuple header")
	}
	return int(un), sz, nil
}

// decodeFields decodes len(t) fields of buf, starting at off, over t, and
// returns the offset past the last. A string field whose slot in t already
// holds the same string keeps it instead of allocating a copy.
func decodeFields(buf []byte, off int, t table.Tuple) (int, error) {
	for i := range t {
		if off >= len(buf) {
			return 0, fmt.Errorf("storage: truncated tuple at field %d", i)
		}
		kind := table.Kind(buf[off])
		off++
		switch kind {
		case table.KindNull:
			t[i] = table.Null()
		case table.KindInt, table.KindBool:
			iv, s := binary.Varint(buf[off:])
			if s <= 0 {
				return 0, fmt.Errorf("storage: corrupt int field %d", i)
			}
			off += s
			t[i] = table.Value{Kind: kind, I: iv}
		case table.KindFloat:
			if off+8 > len(buf) {
				return 0, fmt.Errorf("storage: truncated float field %d", i)
			}
			t[i] = table.Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])))
			off += 8
		case table.KindString:
			l, s := binary.Uvarint(buf[off:])
			if s <= 0 || off+s+int(l) > len(buf) {
				return 0, fmt.Errorf("storage: corrupt string field %d", i)
			}
			off += s
			if b := buf[off : off+int(l)]; t[i].Kind != table.KindString || t[i].S != string(b) {
				t[i] = table.Str(string(b))
			}
			off += int(l)
		default:
			return 0, fmt.Errorf("storage: unknown kind byte %d in field %d", kind, i)
		}
	}
	return off, nil
}

// DecodeTupleReuse decodes one record into dst's storage, reallocating only
// when dst is too short, and keeps a string value dst already holds in the
// same field when the record repeats it — consecutive tuples of a sorted
// run mostly do. The strings handed out are ordinary immutable strings;
// only the value slice is reused.
func DecodeTupleReuse(rec []byte, dst table.Tuple) (table.Tuple, error) {
	n, off, err := tupleHeader(rec)
	if err != nil {
		return dst, err
	}
	if cap(dst) < n {
		dst = make(table.Tuple, n)
	}
	dst = dst[:n]
	_, err = decodeFields(rec, off, dst)
	return dst, err
}
