// The benchmark is a module of its own so that it builds from a checkout
// that holds it next to any commit of the program. The path keeps the
// repro/ prefix: Go's internal-package rule is checked on import paths, so
// repro/bench may import repro/internal/...
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
