GO ?= go

.PHONY: all build test race vet paper-bench bench-ab bench-smoke perfbench-check golden chaos chaos-exp crash chaos-net chaos-fleet fuzz serve-smoke check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the concurrent packages: the campaign engine, the
# durability layer, the worker pool they are built on, the experiment
# registry (ComputeAll fans an experiment's shards out over that
# pool), the serving tier (store + campaign server, including the
# 1k-client load test), the fault model (its sharded kernel cache is
# shared across parallel cores), and the placement layer (lease
# service + worker registry, shard coordinator/scheduler/worker
# loops).
race:
	$(GO) test -race ./internal/campaign/... ./internal/durable/... ./internal/pool/... ./internal/exp/... \
		./internal/store/... ./internal/server/... ./internal/faultmodel/... \
		./internal/leasesvc/... ./internal/shard/...

vet:
	$(GO) vet ./...

# The paper benchmarks: one per table and figure of the evaluation,
# each computing the experiment's merged artifact and reporting its
# headline metrics (EXPERIMENTS.md records them against the paper).
paper-bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/exp/

# The benchmark gate: perfbench A/B against a base git ref on this host
# (cmd/benchab says when it fails). Flags go through ARGS, e.g.
#   make bench-ab ARGS='-base HEAD -pairs 3 -seconds 5'
bench-ab:
	$(GO) run ./cmd/benchab $(ARGS)

# One-iteration pass under the race detector over the disturb
# hot-path, hammer-loop and fleet-campaign benchmarks and the fault
# model's cold row build: catches data races in the sharded
# kernel cache and keeps the benchmark bodies themselves compiling and
# running in CI without benchmark-grade runtime.
bench-smoke:
	$(GO) test -race -bench 'DisturbBatch|FlipApply|HammerThroughput|CampaignFleet' -run '^$$' -benchtime 1x .
	$(GO) test -race -bench 'BuildCandidates' -run '^$$' -benchtime 1x ./internal/faultmodel/

# The repo benchmark (perfbench/, run by `bash perfbench/run.sh`) is a
# separate Go module, so `go build ./...` and `go test ./...` at the
# root never compile it. Vet and test it here, so an API change in the
# packages it drives fails before the benchmark does.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Golden suite: every experiment's rendered text and JSON artifact is
# byte-locked at tiny scale. On mismatch the actual bytes land next to
# the goldens as *.actual so CI can upload them. Regenerate
# deliberately with: go test ./internal/exp/ -run Golden -update
golden:
	$(GO) test -run Golden -count=1 -v ./internal/exp/

# The fault-injection suite under the race detector: hardened engine
# (retry/backoff/breaker) driven through internal/inject, proving the
# bit-identical-summary and explicit-coverage-loss invariants.
chaos:
	$(GO) test -race -run Chaos -v ./internal/campaign/... ./internal/inject/...

# End-to-end chaos drill on the experiment-generic engine path: run a
# paper experiment (fig5, one job per shard) through the real rhfleet
# binary twice — clean and under the chaos fault profile — and require
# the published merged artifacts to be bit-identical.
chaos-exp:
	$(GO) build -o $(CURDIR)/rhfleet.chaos ./cmd/rhfleet
	./rhfleet.chaos -exp fig5 -scale tiny -seed 7 -quiet -out fig5-ref.jsonl -artifact fig5-ref.artifact.json >/dev/null
	./rhfleet.chaos -exp fig5 -scale tiny -seed 7 -quiet -fault-profile chaos+seed=11 -retries 6 \
		-out fig5-chaos.jsonl -artifact fig5-chaos.artifact.json >/dev/null
	cmp fig5-ref.artifact.json fig5-chaos.artifact.json
	rm -f rhfleet.chaos fig5-ref.jsonl fig5-ref.jsonl.lock fig5-chaos.jsonl fig5-chaos.jsonl.lock \
		fig5-ref.artifact.json fig5-chaos.artifact.json

# Crash-injection suite: the checkpoint stream is cut at every byte
# offset, the engine and the real rhfleet binary are SIGKILLed
# mid-write at randomized points, and every resume must produce a
# bit-identical summary. Artifacts (surviving checkpoints, quarantine
# sidecars) land in crash-artifacts/ so CI can upload them on failure.
crash:
	mkdir -p crash-artifacts
	RH_CRASH_DIR=$(abspath crash-artifacts) $(GO) test -race -run Crash -v ./internal/campaign/... ./cmd/rhfleet/...

# Network chaos drill: the rhfleet -coordinate workers own their shards
# through the coordinator's self-hosted fenced lease service over
# loopback HTTP, with seeded partition profiles and SIGKILLs injected
# into real binaries — the merged summary must stay byte-identical to a
# single-process run and no superseded writer may publish a record.
chaos-net:
	mkdir -p crash-artifacts
	RH_CRASH_DIR=$(abspath crash-artifacts) $(GO) test -race -run TestCrashShardNet -count=1 -v ./cmd/rhfleet/

# Fleet placement drill: the real rhserved daemon fans a sharded
# campaign out across three real `rhfleet -worker` processes — one
# slowed by injected lease-client latency — then one healthy worker is
# SIGKILLed mid-run. The scheduler must rebalance off the straggler,
# reassign the dead worker's shards, and the published artifact must
# stay byte-identical to a single-process rhfleet run.
chaos-fleet:
	$(GO) test -race -run TestFleetChaosDrill -count=1 -v ./cmd/rhserved/

# Serve-smoke suite: drive the real rhserved binary end to end —
# start it on a temp store, submit a fig5 campaign over HTTP, stream
# SSE to completion, fetch the artifact and byte-compare it against
# `rhchar -format json`, drain cleanly on SIGTERM (exit 0), reload the
# index on restart, and SIGKILL mid-campaign + restart converging to
# the same bytes.
serve-smoke:
	$(GO) test -run 'TestServeSmoke' -count=1 -v ./cmd/rhserved/

# Short fuzz pass over the checkpoint readers, the OpenCheckpoint
# resume path, the CRC trailer codec, the shard fence-file parser,
# campaign spec resolution, the store index reader and the lease and
# registry HTTP handlers; the committed corpora under each package's
# testdata/fuzz replay on every plain `go test`.
fuzz:
	$(GO) test -fuzz FuzzReadCheckpoint -fuzztime 30s ./internal/campaign/
	$(GO) test -fuzz FuzzOpenCheckpoint -fuzztime 30s ./internal/campaign/
	$(GO) test -fuzz FuzzRecordCRCTrailer -fuzztime 30s ./internal/campaign/
	$(GO) test -fuzz FuzzReadFence -fuzztime 30s ./internal/shard/
	$(GO) test -fuzz FuzzResolveSpec -fuzztime 30s ./internal/server/
	$(GO) test -fuzz FuzzStoreOpen -fuzztime 30s ./internal/store/
	$(GO) test -fuzz FuzzLeaseHandler -fuzztime 30s ./internal/leasesvc/

check: build vet test race
