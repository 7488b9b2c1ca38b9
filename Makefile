# PROV-IO (Go reproduction) build targets.

GO ?= go

.PHONY: all build test vet race lines bench bench-paper perf-smoke perf-compare experiments examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/mpi/ ./internal/vfs/ ./internal/par/ ./internal/rdf/ ./internal/rdf/segcodec/ ./internal/model/ ./internal/backend/ ./internal/faultfs/ ./internal/core/ ./internal/sparql/ ./internal/vol/

# Non-test Go lines the way ROADMAP counts them: blank lines and whole-line
# // comments excluded, bench/perf included. One line per package directory,
# then the tree total.
lines:
	@find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | \
		xargs awk '!/^[ \t]*(\/\/.*)?$$/ { d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++; total++ } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "LC_ALL=C sort -k2"; close("LC_ALL=C sort -k2"); printf "%7d  total\n", total }'

# One iteration of every experiment benchmark at small scale.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# The paper's full parameter sweeps (several minutes).
bench-paper:
	PROVIO_BENCH_SCALE=paper $(GO) test -bench='Fig|Table' -benchtime=1x .

# bench/perf is its own Go module, so `go build ./... && go test ./...` at
# the root never compiles it: this target vets and tests it and drives every
# workload once at smoke scale, failing unless the run ends with "failed":0.
# The run's records land in .bench_build/perf-smoke.json (-out appends, so the
# previous run's file is removed first); CI uploads that file.
perf-smoke:
	cd bench/perf && $(GO) vet ./... && $(GO) test ./...
	rm -f .bench_build/perf-smoke.json
	bash bench/perf/run.sh --workload all -scale smoke -rounds 1 -out .bench_build/perf-smoke.json | tail -n 1 | tee /dev/stderr | grep -q '"failed":0'

# The before/after a perf PR must show, in one command:
#   make perf-compare BASE=<ref> [PAIRS=n]
# checks BASE out into a git worktree under .bench_build/, runs every workload
# on that tree and on this one PAIRS times, alternating which side goes first,
# and ends with the harness's own -compare over the two record files (exit 1
# on a regression).
PAIRS ?= 3
cmp := $(CURDIR)/.bench_build/compare
perf-compare:
	@test -n "$(BASE)" || { echo "usage: make perf-compare BASE=<ref> [PAIRS=n]" >&2; exit 2; }
	rm -rf $(cmp)
	git worktree prune
	mkdir -p $(cmp)
	git worktree add --detach $(cmp)/base $(BASE)
	set -e; for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			if [ $$side = base ]; then tree=$(cmp)/base; else tree=$(CURDIR); fi; \
			bash $$tree/bench/perf/run.sh --workload all -out $(cmp)/$$side.json; \
		done; \
	done
	git worktree remove --force $(cmp)/base
	bash bench/perf/run.sh -compare $(cmp)/base.json $(cmp)/head.json

# Regenerate every table/figure with the CLI, writing artifacts to ./artifacts.
experiments:
	$(GO) run ./cmd/provio-bench -exp all -scale paper -out artifacts

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dassa-lineage
	$(GO) run ./examples/topreco-configs
	$(GO) run ./examples/h5bench-stats
	$(GO) run ./examples/adios-pipeline

# .bench_build holds the harness's build cache, spans and perf-compare's
# worktree of BASE; pruning drops git's record of that worktree, so a
# perf-compare that died half-way cannot block the next one.
clean:
	rm -rf artifacts .bench_build
	git worktree prune
