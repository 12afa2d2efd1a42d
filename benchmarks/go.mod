// The benchmark is a module of its own so that it builds from its own
// build file; the replace line points at the repository it measures.
module occamy/benchmarks

go 1.24

require occamy v0.0.0

replace occamy => ../
