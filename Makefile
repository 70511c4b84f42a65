GO ?= go

.PHONY: all build test vet race race-all chaos chaos-membership bench bench-json bench-json-pr4 bench-json-pr5 bench-json-pr7 bench-json-pr9 bench-json-pr10 bench-smoke fuzz-seeds cover experiments experiments-small clean

all: vet test

build:
	$(GO) build ./...

vet: build
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

# Matches the CI race job: the packages with real concurrency.
race:
	$(GO) test -race ./internal/qbh/... ./internal/server/... ./internal/replica/... ./internal/membership/... ./internal/index/... ./internal/rtree/... ./internal/store/... ./internal/dtw/... ./internal/pager/...

# The kill-a-replica chaos suite under the race detector: every replica
# is a real OS process, death is SIGKILL (matches the CI chaos job).
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/replica/

# Membership chaos: SIGKILL the primary under write load (automatic
# failover, zero acked-write loss), kill and cold-restart the seed, and
# rebalance onto a joining group while writes stream (dual-write window,
# bit-identical queries afterwards). Real OS processes, -race (matches
# the CI chaos-membership job).
chaos-membership:
	$(GO) test -race -run 'TestChaosMembership' -v ./internal/membership/

race-all:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Capture the steady-state query benchmarks as a JSON artifact. The tracked
# BENCH_pr2.json was produced this way (before/after numbers for the
# zero-allocation verification pipeline).
bench-json:
	$(GO) test -run='^$$' -bench='BenchmarkRangeQuery$$|BenchmarkKNN$$|BenchmarkVerifyCandidates$$|BenchmarkRangeQueryParallel$$' -benchmem . ./internal/index/ \
		| $(GO) run ./cmd/benchjson -label after -o BENCH_pr2.json

# Sweep shard counts over the sharded index: range/kNN latency and Add
# throughput under concurrent query load, each at 1/2/4/8 shards. The
# tracked BENCH_pr4.json was produced this way; the shards=1 rows are the
# unsharded baseline the speedup is measured against.
bench-json-pr4:
	$(GO) test -run='^$$' -bench='BenchmarkSharded' -benchmem ./internal/index/ \
		| $(GO) run ./cmd/benchjson -label sharded -o BENCH_pr4.json

# PR5: cache-resident verification. Records the steady-state query
# benchmarks and the sharded sweep into BENCH_pr5.json under the given
# LABEL (before/after and sharded-before/sharded-after runs merge into one
# artifact; the tracked file holds both sides of the arena+plan change).
bench-json-pr5: LABEL ?= after
bench-json-pr5:
	$(GO) test -run='^$$' -bench='BenchmarkRangeQuery$$|BenchmarkKNN$$|BenchmarkVerifyCandidates$$|BenchmarkRangeQueryParallel$$' -benchmem . ./internal/index/ \
		| $(GO) run ./cmd/benchjson -label $(LABEL) -o BENCH_pr5.json
	$(GO) test -run='^$$' -bench='BenchmarkSharded' -benchmem ./internal/index/ \
		| $(GO) run ./cmd/benchjson -label sharded-$(LABEL) -o BENCH_pr5.json

# PR9: out-of-core paged storage. Sweeps buffer-pool sizes (plus the
# all-in-RAM baseline) over warm and cold range/kNN queries, recording
# latency, pool hit rate and misses/op into BENCH_pr9.json. Cold runs
# reset the pool before every query; warm runs measure steady state.
bench-json-pr9:
	$(GO) test -run='^$$' -bench='BenchmarkPaged' -benchmem ./internal/index/ \
		| $(GO) run ./cmd/benchjson -label paged -o BENCH_pr9.json

# PR7: pruning power of the four-stage LB cascade. Records per-stage
# survivor counts (candidates, coarse New_PAA box, LB_Keogh, LB_Improved,
# exact DTW) plus the LB_Keogh-only counterfactual baseline into
# BENCH_pr7.json.
bench-json-pr7:
	$(GO) test -run='^$$' -bench='BenchmarkPruningPower' -benchmem ./internal/experiments/ \
		| $(GO) run ./cmd/benchjson -label pruning -o BENCH_pr7.json

# PR10: batched execution + result cache. Two sides of one artifact:
# the index-level comparison of one group of concurrent near-duplicate
# range queries executed serially vs through the Batcher (ns/op and
# allocs/op per group), and the end-to-end open-loop trajectories from
# cmd/qbhload — the same Zipf workload at equal target QPS with the cache
# off, the cache on, and batched execution on (mean/p50/p99 latency,
# achieved QPS, cache hit rate).
bench-json-pr10:
	$(GO) test -run='^$$' -bench='BenchmarkBatchedRange' -benchmem -benchtime=2s ./internal/index/ \
		| $(GO) run ./cmd/benchjson -label index-batch -o BENCH_pr10.json
	$(GO) run ./cmd/qbhload -scenarios -songs 120 -qps 150 -duration 5s -pool 16 -zipf-s 1.5 \
		| $(GO) run ./cmd/benchjson -label qbhload -o BENCH_pr10.json

# One iteration of every benchmark: catches bit-rot in benchmark code
# without spending CI time on stable measurements (matches the CI step).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/index/ ./internal/dtw/ ./internal/audio/

# Run the fuzz seed corpora as regression tests (what CI does); use
# `go test -fuzz=FuzzName ./internal/dtw/` for a real fuzzing session.
fuzz-seeds:
	$(GO) test -run='^Fuzz' ./internal/dtw/ ./internal/ts/ ./internal/store/ ./internal/index/ ./internal/membership/ ./internal/pager/ ./internal/rtree/ ./internal/audio/ ./internal/wav/

cover:
	$(GO) test -cover ./...

experiments:
	$(GO) run ./cmd/experiments -run all

experiments-small:
	$(GO) run ./cmd/experiments -run all -scale small

clean:
	$(GO) clean ./...
