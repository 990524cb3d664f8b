// Fixture pinning that the shared clause-set store (import path
// repro/internal/clauseset) is inside the detrand and fnvkey watch lists:
// the one violating line trips both analyzers, so the same want matches
// whichever of the two runs.
package clauseset

import (
	"fmt"
	"time"
)

func bad(memo map[string]int) {
	memo[fmt.Sprint(time.Now())]++ // want `time.Now is nondeterministic|string rendering`
}
