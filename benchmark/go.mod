// The benchmark is a module of its own so that it measures the repository
// from outside: nothing in the main module imports or builds it.
module spatialhist/benchmark

go 1.22

require spatialhist v0.0.0

replace spatialhist => ../
