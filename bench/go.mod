// The benchmark is a module of its own so that it builds from its own
// build file; the replace makes it part of the kbharvest import tree, so
// it can call the layers' internal packages directly.
module kbharvest/bench

go 1.22

require kbharvest v0.0.0

replace kbharvest => ../
