GO ?= go

.PHONY: all build test vet lint race verify bench bench-layers bench-json bench-check crash soak fuzz-smoke profile loc loc-check

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis: gofmt must have nothing to say, then staticcheck when
# available (CI installs it), otherwise go vet so the target works on a bare
# toolchain.
lint:
	@unformatted=$$(gofmt -l *.go benchmark cmd examples internal); if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "lint: staticcheck not on PATH, falling back to go vet"; \
		$(GO) vet ./...; \
	fi

race:
	$(GO) test -race ./...

# Crash matrix: >= 40 deterministic power cuts across every pipeline
# phase (seed pinned in crash.DefaultConfig), each recovering with zero
# fsck problems and zero durability violations. -count=1 forces a fresh
# run even when the package test cache is warm.
crash:
	$(GO) test ./internal/crash/ -run TestCrashMatrix -count=1

# Chaos/overload soaks under the race detector: the combined overload +
# library-outage storm (double-run digest equality), the replication and
# repair soaks, the deadline/cancel suite, and the request-tracing
# determinism gate (tracing must not perturb the run, and the /requests
# document must be byte-identical across a double run), and the
# hit-under-miss tests (readers that give the file system lock up for a
# demand fetch, beside writers, thrashing and expiring), and the per-library
# I/O queues (concurrent fetches over two libraries, an outage with fetches
# queued), and the pointer-block reserve's re-read test (one tertiary wait,
# not two), and slot lending (the slot bounds at every transition, a double
# run), routing by drive, the line write beside the next media read, and two
# MigrateFiles callers at once, and late line binding (a failed fetch evicts
# nothing, the line hit in flight is not the victim, an arrival with no line to
# be had defers to the copy-out queued behind it, eight readers over two
# libraries under segmented and plain LRU), and HSM requests from two procs
# at once (two pins of one file, the multi-principal double run). -count=1
# forces fresh runs. The kernel's own tests run three times over: every proc
# is a coroutine the dispatcher switches to, so its state crosses goroutines
# on every event.
soak:
	$(GO) test -race -count=3 ./internal/sim/
	$(GO) test -race -count=1 ./internal/svc/ -run 'TestOverloadLibraryOutageSoak|TestCancelMidCopyout|TestQueuedExpiry|TestLend'
	$(GO) test -race -count=1 ./internal/core/ -run 'Soak|Repair|CachedReadOverlaps|ThrashingReaders|DeadlineWhileParked|ReaderPinsItsLine|StagerWakes|UseBothLibraries|RereadAfterEvictionWaitsOnce|TwoMigrateFilesCallers|HotFilesStayCached'
	$(GO) test -race -count=1 ./internal/tertiary/ -run 'UseBothLibraries|QueuedFetchesSurviveLibraryOutage|RouteAroundTheBusyDrive|LineWrite|FailedFetchEvictsNothing|LineHitInFlight|ArrivalWithoutALine|OneLibraryKeepsItsSchedule'
	$(GO) test -race -count=1 ./internal/lfs/ -run 'Faulting|WriterOverwritesWhileReaderParked|ThrashFallsBack|GroundMoved|Concurrent'
	$(GO) test -race -count=1 ./internal/bench/ -run 'TestReqtraceAblationFree|TestRequestsJSONBitReproducible'
	$(GO) test -race -count=1 ./internal/hsm/ -run 'Concurrent|DoubleRun'

# Ten seconds of coverage-guided fuzzing per parser of what is on the media:
# the two device images, the superblock and checkpoint blocks a mount reads
# first, the log's summary block, the partial-segment chain of a whole
# segment image, an inode-map entry with the inode block it names, a
# directory's records, and the encoding of every list of names lfs accepts
# (their seeds, under testdata/fuzz or added by f.Add, run in plain
# `go test` already).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDiskLoadStore -fuzztime 10s ./internal/dev/
	$(GO) test -run '^$$' -fuzz FuzzJukeboxLoadStore -fuzztime 10s ./internal/jukebox/
	$(GO) test -run '^$$' -fuzz FuzzSuperblockDecode -fuzztime 10s ./internal/lfs/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime 10s ./internal/lfs/
	$(GO) test -run '^$$' -fuzz FuzzDecodeSummary -fuzztime 10s ./internal/lfs/
	$(GO) test -run '^$$' -fuzz FuzzParseSegment -fuzztime 10s ./internal/lfs/
	$(GO) test -run '^$$' -fuzz FuzzInodeDecode -fuzztime 10s ./internal/lfs/
	$(GO) test -run '^$$' -fuzz FuzzDecodeDirents -fuzztime 10s ./internal/lfs/
	$(GO) test -run '^$$' -fuzz FuzzDirentRoundTrip -fuzztime 10s ./internal/lfs/

# Tier-1 verification: everything CI's verify job runs, in order.
verify: build vet lint test race crash loc-check

# Paper-scale table/figure benchmarks live in the root package (see
# bench_test.go); -benchtime 1x runs each experiment once, as documented
# there.
bench:
	$(GO) test -bench . -benchmem -benchtime 1x .

# Per-layer micro-benchmarks of the kernel (self-wake, two-proc ping-pong,
# contended resource, 4-way spawn and join), of the block data path
# (lfs -> stripe -> dev, a fetched line adopted by the parity farm, and the
# parity XOR alone) and of the tertiary side
# (a jukebox segment in and out, a segment-cache lookup and the choice of a
# victim), and of a buffer-cache insert that evicts through a full
# pointer-block reserve, and of the workload generator's file tree: host
# ns/op, B/op and allocs/op per layer, so a wall-clock or allocation
# regression names its layer. Informational, not a gate.
bench-layers:
	$(GO) test -run '^$$' -bench 'SleepSelfWake|CondPingPong|ResourceHandoff|SpawnJoin4' -benchmem -benchtime 20000x ./internal/sim/
	$(GO) test -run '^$$' -bench 'LFSSequential(Read|Write)1MB' -benchmem -benchtime 20x ./internal/lfs/
	$(GO) test -run '^$$' -bench 'BufferEvict' -benchmem -benchtime 200000x ./internal/lfs/
	$(GO) test -run '^$$' -bench 'Interleave(WriteParity|AdoptLine1MB|Read1MB)' -benchmem -benchtime 20x ./internal/stripe/
	$(GO) test -run '^$$' -bench 'XorInto64K' -benchmem -benchtime 2000x ./internal/stripe/
	$(GO) test -run '^$$' -bench 'Disk(Write|Adopt|Read|ShareLine)1MB' -benchmem -benchtime 20x ./internal/dev/
	$(GO) test -run '^$$' -bench 'Jukebox(Lend|Read|Write)Segment' -benchmem -benchtime 20x ./internal/jukebox/
	$(GO) test -run '^$$' -bench 'CacheLookup|CacheVictim' -benchmem -benchtime 200000x ./internal/cache/
	$(GO) test -run '^$$' -bench 'BuildTree' -benchmem -benchtime 20x ./internal/wl/

# Machine-readable snapshot of every table's metrics + obs counters.
bench-json:
	$(GO) run ./cmd/hlbench -quick -json BENCH_0.json

# Require a fresh quick-scale snapshot to equal the committed BENCH_*.json
# baseline metric for metric (virtual time is bit-reproducible; only
# float round-off is absorbed), with no metric missing on either side.
# After an intended behavior change, regenerate the baseline with bench-json.
bench-check:
	$(GO) run ./cmd/benchcheck

# Non-test Go lines per package and in total, benchmark/ excluded: the
# tracked number that should go down (ROADMAP item 5).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		| xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# The total of `make loc` may not exceed LOC_MAX: the total of the last PR
# that lowered it. A PR that lowers the total lowers LOC_MAX to its own; one
# that must raise it says why in the same diff.
LOC_MAX = 24872
loc-check:
	@$(MAKE) -s loc | awk -v max=$(LOC_MAX) '{ print } $$2 == "total" { t = $$1 } \
		END { if (t == "" || t > max) { printf "loc-check: %d non-test Go lines, LOC_MAX is %d\n", t, max; exit 1 } }'

# CPU profile of the multi-round migration + demand-fetch workload: run
# hlbench -serve (its server answers net/http/pprof under /debug/pprof/)
# on the loopback, capture a profile into profiles/cpu.pprof, then stop it.
# Inspect with `go tool pprof profiles/cpu.pprof`.
PROFILE_ADDR ?= 127.0.0.1:18925
profile:
	mkdir -p profiles
	$(GO) build -o profiles/hlbench.bin ./cmd/hlbench
	profiles/hlbench.bin -quick -serve $(PROFILE_ADDR) -rounds 8 & pid=$$!; \
	sleep 2; \
	$(GO) tool pprof -seconds 15 -proto -output profiles/cpu.pprof http://$(PROFILE_ADDR)/debug/pprof/profile; \
	status=$$?; kill $$pid 2>/dev/null; exit $$status
