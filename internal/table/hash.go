package table

import (
	"math"

	"repro/internal/prob"
)

// HashOn hashes the values at the given column indexes with FNV-1a — the
// key hash of hash-join build sides and the partitioning hash of the
// group-key-partitioned aggregation scans. Values that compare equal
// under Compare hash equally: numeric kinds are hashed through their float64
// image so an int join key matches a float one, mirroring Compare's
// cross-kind numeric semantics.
func HashOn(t Tuple, idx []int) uint64 {
	h := prob.FNVInit()
	mix := func(b byte) { h = prob.FNVByte(h, b) }
	mix64 := func(v uint64) { h = prob.FNVUint64(h, v) }
	for _, j := range idx {
		v := t[j]
		switch v.Kind {
		case KindNull:
			mix(0)
		case KindInt, KindFloat:
			// Hash through the numeric image; normalize -0 so that values
			// equal under Compare collide.
			f := v.numeric()
			if f == 0 {
				f = 0
			}
			mix(1)
			mix64(math.Float64bits(f))
		case KindBool:
			mix(2)
			mix(byte(v.I & 1))
		case KindString:
			mix(3)
			mix64(uint64(len(v.S)))
			for k := 0; k < len(v.S); k++ {
				mix(v.S[k])
			}
		}
	}
	return h
}
