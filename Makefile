GO ?= go

.PHONY: all build test vet purego race race-all chaos bench bench-e2e bench-smoke fuzz-seeds fuzz cover experiments experiments-small clean

all: vet test

build:
	$(GO) build ./...

vet: build
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

# The portable twins of the assembly kernels (audio acf16, acf32, acfNorm16
# and acfNorm32, dtw lbBlock16, lbBytes16, projBlock16 and envBytesPass,
# rtree leafBoxDists) are built by no amd64 job without this tag.
purego:
	$(GO) vet -tags purego ./internal/audio/ ./internal/dtw/ ./internal/rtree/
	$(GO) test -tags purego ./internal/audio/ ./internal/dtw/ ./internal/rtree/

# The packages with real concurrency.
race:
	$(GO) test -race ./internal/lru/... ./internal/qbh/... ./internal/server/... ./internal/replica/... ./internal/index/... ./internal/rtree/... ./internal/store/... ./internal/dtw/... ./internal/pager/...

# The kill-a-replica chaos suite under the race detector: every replica
# is a real OS process, death is SIGKILL, and a coordinator promotes a
# two-replica group's follower under load.
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/replica/

race-all:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The repo's one benchmark (BENCHMARK.json, bench/README.md): builds qbhd
# from this checkout, runs the four end-to-end workloads against it and
# appends the run to bench/out/all.json; `go run ./bench compare a.json
# b.json` judges two such files.
bench-e2e:
	$(GO) run ./bench -workload all

# One iteration of every benchmark: catches bit-rot in benchmark code
# without spending CI time on stable measurements.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Run every package's fuzz seed corpora as regression tests; use
# `make fuzz` for a real fuzzing session.
fuzz-seeds:
	$(GO) test -run='^Fuzz' ./...

# One fuzzing session of one target, e.g.
#   make fuzz FUZZ=FuzzIndexModel PKG=./internal/index/ FUZZTIME=5m
# -fuzzminimizetime 1x minimizes each new input in one pass instead of for
# up to a minute: a 60 s FuzzIndexModel session on 2 cores ran 2 087
# executions with it and 707 without.
FUZZTIME ?= 60s
fuzz:
	@test -n "$(FUZZ)" -a -n "$(PKG)" || { echo 'usage: make fuzz FUZZ=FuzzName PKG=./internal/pkg/ [FUZZTIME=60s]'; exit 2; }
	$(GO) test -run='^$$' -fuzz='^$(FUZZ)$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x $(PKG)

cover:
	$(GO) test -cover ./...

experiments:
	$(GO) run ./cmd/experiments -run all

experiments-small:
	$(GO) run ./cmd/experiments -run all -scale small

clean:
	$(GO) clean ./...
