// The benchmark is a module of its own so that it builds from its own
// build file; the mario/ prefix keeps mario/internal/... importable.
module mario/bench

go 1.22

require mario v0.0.0

replace mario => ../
