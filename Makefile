# PROV-IO (Go reproduction) build targets.

GO ?= go

.PHONY: all build test vet race bench bench-paper perf-smoke experiments examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/mpi/ ./internal/vfs/ ./internal/rdf/ ./internal/core/ ./internal/vol/

# One iteration of every experiment benchmark at small scale.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# The paper's full parameter sweeps (several minutes).
bench-paper:
	PROVIO_BENCH_SCALE=paper $(GO) test -bench='Fig|Table' -benchtime=1x .

# bench/perf is its own Go module, so `go build ./... && go test ./...` at
# the root never compiles it: this target vets and tests it and drives every
# workload once at smoke scale, failing unless the run ends with "failed":0.
perf-smoke:
	cd bench/perf && $(GO) vet ./... && $(GO) test ./...
	bash bench/perf/run.sh --workload all -scale smoke -rounds 1 | tail -n 1 | tee /dev/stderr | grep -q '"failed":0'

# Regenerate every table/figure with the CLI, writing artifacts to ./artifacts.
experiments:
	$(GO) run ./cmd/provio-bench -exp all -scale paper -out artifacts

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dassa-lineage
	$(GO) run ./examples/topreco-configs
	$(GO) run ./examples/h5bench-stats
	$(GO) run ./examples/adios-pipeline

clean:
	rm -rf artifacts
