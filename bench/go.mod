// The benchmark is a module of its own so that it builds from this
// directory alone plus the repository it measures: the import-path
// prefix ccpfs/ lets it reach ccpfs/internal/..., and the replace
// directive points at the checkout it sits in.
module ccpfs/bench

go 1.24

require ccpfs v0.0.0

replace ccpfs => ../
