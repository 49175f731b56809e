module taskbench/bench

go 1.23

require taskbench v0.0.0

replace taskbench => ../
