module github.com/hpc-io/prov-io/bench/perf

go 1.22

require github.com/hpc-io/prov-io v0.0.0

replace github.com/hpc-io/prov-io => ../..
