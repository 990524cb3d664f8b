package prob

// The one FNV-1a implementation shared by every hash-keyed container in the
// system: table.HashOn (tuple keys for joins, dedup and partitioning), the
// lineage collector's clause dedup, and the OBDD compiler's interned
// clause-set memo. All of them resolve collisions by structural equality,
// so the hash only has to be fast and well mixed — but keeping one copy of
// the constants and the byte loop means they can never drift apart.
//
// FNVWord is the second mixer: FNV-1a's xor-then-multiply step applied to a
// whole 32-bit word, one multiply where FNVUint32 spends four. Its hashes
// are not FNV-1a's, so it serves only containers whose keys are never
// compared with a byte-wise hash — the lineage compilers' clause-set memo
// (clauseset.Hash), where the literals are words anyway.

// FNV-1a parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// FNVInit returns the FNV-1a offset basis.
func FNVInit() uint64 { return fnvOffset64 }

// FNVByte folds one byte into an FNV-1a hash.
func FNVByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// FNVUint64 folds eight little-endian bytes into an FNV-1a hash.
func FNVUint64(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h = FNVByte(h, byte(v>>s))
	}
	return h
}

// FNVUint32 folds four little-endian bytes into an FNV-1a hash.
func FNVUint32(h uint64, v uint32) uint64 {
	for s := 0; s < 32; s += 8 {
		h = FNVByte(h, byte(v>>s))
	}
	return h
}

// FNVWord folds one 32-bit word into a hash with a single xor-multiply.
func FNVWord(h uint64, w uint32) uint64 { return (h ^ uint64(w)) * fnvPrime64 }

// Hash is FNV-1a over the normalized clause's variable ids.
func (c Clause) Hash() uint64 {
	h := FNVInit()
	for _, v := range c {
		h = FNVUint32(h, uint32(v))
	}
	return h
}
