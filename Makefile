GO ?= go

.PHONY: all build test vet lint race verify bench bench-layers bench-json bench-check crash soak fuzz-smoke profile loc loc-check

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis: gofmt must have nothing to say; then the surface check
# (surface_test.go: every export under internal/ has a caller in another
# package or an allow-list reason, and every backticked name in DESIGN.md,
# README.md and the Go comments exists), the reach check (reach_test.go: every
# function under internal/ is linked into a program or reached from an
# allow-listed one, by the linker's own -dumpdep graph) and the Makefile's test
# patterns (makefile_test.go: every -run, -bench and -fuzz alternative names a
# test that exists); then staticcheck when available (CI installs it),
# otherwise go vet so the target works on a bare toolchain.
lint:
	@unformatted=$$(gofmt -l *.go benchmark cmd examples internal); if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) test -count=1 -run '^Test(Surface|Reach|MakefilePatterns)' .
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "lint: staticcheck not on PATH, falling back to go vet"; \
		$(GO) vet ./...; \
	fi

race:
	$(GO) test -race ./...

# Crash matrix: 40 deterministic power cuts across every pipeline phase
# (seed pinned in crash.defaultConfig) on each of four rigs (the serial and
# the two-stream pipeline, each write-cached and write-through), each
# recovering with zero fsck problems and zero durability violations and
# with the digest internal/crash/testdata/matrix.golden holds. -count=1
# forces a fresh run even when the package test cache is warm.
crash:
	$(GO) test ./internal/crash/ -run TestCrashMatrix -count=1

# Chaos/overload soaks under the race detector: the combined overload +
# library-outage storm (double-run digest equality), the replication and
# repair soaks, the deadline/cancel suite, and the request-tracing
# determinism gate (tracing must not perturb the run, and the requests
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
# libraries under segmented and plain LRU), and the copy-outs of a replicated
# line (one image on both media, a line changed between sibling reads, a
# sibling's transient faults, a sibling that reads the line first), and lent
# blocks (a file read from a fetched line and written, truncated, its
# directory edited and its buffers evicted, on two libraries; a lending read
# of a parity farm with a spindle failed; one whole row of a parity farm
# written kept and plain, each spindle's part a lone transfer, its parity the
# XOR of its lanes and every degraded read right; partial rows written kept and
# plain around a fetched line and with a spindle failed), and a copied-out line's staged
# image (the file rewritten, truncated and evicted, another staged after it,
# the changers' image and the line unchanged), and discarding dead segments
# (a power cut at every media write between a table-only checkpoint and the
# full one, a segment cleaned and written again before the checkpoint), and the
# write drive's reservation (held while a copy-out is on its way, from dispatch
# to its report; lent to reads otherwise), and sequential read-ahead (a scan
# that waits on one demand fetch, scattered reads that fetch nothing ahead, a
# prefetched line whose reader is gone, a hook that does not cascade, a
# read-ahead that never blocks). -count=1
# forces fresh runs. The kernel's own tests run three times over: every proc
# is a coroutine the dispatcher switches to, so its state crosses goroutines
# on every event.
soak:
	$(GO) test -race -count=3 ./internal/sim/
	$(GO) test -race -count=1 ./internal/svc/ -run 'TestOverloadLibraryOutageSoak|TestCancelMidCopyout|TestQueuedExpiry|TestLend|TestDeadlinesSpawnNoProc'
	$(GO) test -race -count=1 ./internal/core/ -run 'Soak|Repair|CachedReadOverlaps|ThrashingReaders|DeadlineWhileParked|ReaderPinsItsLine|StagerWakes|UseBothLibraries|RereadAfterEvictionWaitsOnce|TwoMigrateFilesCallers|HotFilesStayCached|ReplicasOfAStagedLineShareOneImage|LentBlocksAreNeverWritten|CopiedOutImageIsNeverWritten|SequentialScanWaitsOnce|ScatteredReadsFetchNothingAhead|PrefetchedLineOutlivesItsReader'
	$(GO) test -race -count=1 ./internal/tertiary/ -run 'UseBothLibraries|QueuedFetchesSurviveLibraryOutage|RouteAroundTheBusyDrive|LineWrite|FailedFetchEvictsNothing|LineHitInFlight|ArrivalWithoutALine|OneLibraryKeepsItsSchedule|ReplicasShareOneImage|ReplicaOfAChangedLine|ReplicaCopyoutsSurvive|SiblingFirstSharesTheStagedImage|FetchDuringCopyoutKeepsTheWritingPlatter|IdleWriteDriveServesAFetch|PrefetchHookAskedOnlyForWaitedFetches|FetchAheadNeverBlocks|CopyoutReadOverlapsMediaWrite|CopyoutsReachMediaInQueueOrder'
	$(GO) test -race -count=1 ./internal/jukebox/ -run 'WriteDriveReservation|ReadsKeepOffTheWriteDriveWhileWriting|IdleWriteDriveServesReads'
	$(GO) test -race -count=1 ./internal/lfs/ -run 'Faulting|WriterOverwritesWhileReaderParked|ThrashFallsBack|GroundMoved|Concurrent|FetchedBlocksAreLent|DeadAtTableCheckpointSurvivesPowerCut|CleanedAndReusedSegmentIsNotDiscarded|ReadAhead'
	$(GO) test -race -count=1 ./internal/stripe/ -run 'LendingReadOfAnAdoptedLine|ParityAloneOnItsSpindle|PartialRowsByReference'
	$(GO) test -race -count=1 ./internal/bench/ -run 'TestReqtraceAblationFree|TestRequestsJSONBitReproducible'

# Ten seconds of coverage-guided fuzzing per parser of what is on the media:
# the two device images, the superblock and checkpoint blocks a mount reads
# first, the log's summary block, the partial-segment chain of a whole
# segment image, an inode-map entry with the inode block it names, a
# directory's records, the encoding of every list of names lfs accepts, and
# an image's config.json (their seeds, under
# testdata/fuzz or added by f.Add, run in plain `go test` already).
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
	$(GO) test -run '^$$' -fuzz FuzzImagefsConfig -fuzztime 10s ./internal/imagefs/

# Tier-1 verification: everything CI's verify job runs, in order.
verify: build vet lint test race crash loc-check

# Paper-scale table/figure benchmarks live in the root package (see
# bench_test.go); -benchtime 1x runs each experiment once, as documented
# there.
bench:
	$(GO) test -bench . -benchmem -benchtime 1x .

# Per-layer micro-benchmarks of the kernel (self-wake, two-proc ping-pong,
# contended resource, 4-way spawn and join), of the block data path
# (lfs -> stripe -> dev, lfs reading a 1 MB line fetched or owned, a fetched
# line adopted by the parity farm, the parity XOR alone, and a 1 MB staging
# line written in kept partial segments and copied out into its own image)
# and of the tertiary side
# (a jukebox segment in and out, a line copied out to two libraries, a
# segment-cache lookup and the choice of a victim), and of a buffer-cache insert that evicts through a full
# pointer-block reserve, and of the workload generator's file tree and its
# 8 KB sequential scan: host ns/op, B/op and allocs/op per layer, so a
# wall-clock or allocation regression names its layer. Informational, not a
# gate.
bench-layers:
	$(GO) test -run '^$$' -bench 'SleepSelfWake|CondPingPong|ResourceHandoff|SpawnJoin4' -benchmem -benchtime 20000x ./internal/sim/
	$(GO) test -run '^$$' -bench 'LFSSequential(Read|Write)1MB|LFSRead(Fetched|Owned)Line1MB' -benchmem -benchtime 20x ./internal/lfs/
	$(GO) test -run '^$$' -bench 'BufferEvict' -benchmem -benchtime 200000x ./internal/lfs/
	$(GO) test -run '^$$' -bench 'CreateRemove200' -benchmem -benchtime 2000x ./internal/lfs/
	$(GO) test -run '^$$' -bench 'Interleave(WriteParity|AdoptLine1MB|Read1MB)' -benchmem -benchtime 20x ./internal/stripe/
	$(GO) test -run '^$$' -bench 'InterleaveFanOut4' -benchmem -benchtime 20000x ./internal/stripe/
	$(GO) test -run '^$$' -bench 'AuditFill' -benchmem -benchtime 200x ./internal/obs/attr/
	$(GO) test -run '^$$' -bench 'TraceCycle' -benchmem -benchtime 20000x ./internal/obs/
	$(GO) test -run '^$$' -bench 'XorInto64K' -benchmem -benchtime 2000x ./internal/stripe/
	$(GO) test -run '^$$' -bench 'Disk(Write|Adopt|Read|ShareLine)1MB|StageLine1MB' -benchmem -benchtime 20x ./internal/dev/
	$(GO) test -run '^$$' -bench 'Jukebox(Lend|Read|Write)Segment' -benchmem -benchtime 20x ./internal/jukebox/
	$(GO) test -run '^$$' -bench 'ReplicatedCopyout' -benchmem -benchtime 20x ./internal/tertiary/
	$(GO) test -run '^$$' -bench 'CacheLookup|CacheVictim' -benchmem -benchtime 200000x ./internal/cache/
	$(GO) test -run '^$$' -bench 'BuildTree' -benchmem -benchtime 20x ./internal/wl/
	$(GO) test -run '^$$' -bench 'SequentialScan' -benchmem -benchtime 20000x ./internal/wl/

# Machine-readable snapshot of every table's metrics + obs counters.
bench-json:
	$(GO) run ./cmd/hlbench -quick -json BENCH_0.json

# Require a fresh quick-scale snapshot to equal the committed BENCH_0.json
# baseline metric for metric (virtual time is bit-reproducible; only
# float round-off is absorbed), with no metric missing on either side.
# After an intended behavior change, regenerate the baseline with bench-json.
# Then run the four benchmark workloads (largeobj, migrate, fetch, serve) for
# each seed of BENCH_SEEDS, traced for the per-layer ledger, and require every
# metric the result file marks exact to equal testdata/benchcheck's baseline
# for that seed; the host-clock numbers are printed beside the baseline's, not
# gated. After an intended change, copy .bench_check/workloads-SEED.json over
# the baseline. It also prints where the benchmark's largeobj check closure
# (LAYOUT_SYM) landed, mod 64: a loop there runs slower in one half of a
# 64-byte line than in the other, so a change that moves it can move
# largeobj's host_wall_s with no change of its own (EXPERIMENTS.md, "code
# placement").
BENCH_SEEDS = 1993 19930621
LAYOUT_SYM = main.largeobj.func3.1
bench-check:
	$(GO) run ./cmd/benchcheck -baseline BENCH_0.json
	$(GO) build -o .bench_check/hlperf ./benchmark
	$(GO) build -o .bench_check/benchcheck ./cmd/benchcheck
	@addr=$$($(GO) tool nm -n .bench_check/hlperf | awk '$$3 == "$(LAYOUT_SYM)" { print $$1 }'); \
	if [ -n "$$addr" ]; then echo "bench-check: $(LAYOUT_SYM) at 0x$$addr, $$((0x$$addr % 64)) mod 64"; \
	else echo "bench-check: $(LAYOUT_SYM) not in .bench_check/hlperf"; fi
	@for s in $(BENCH_SEEDS); do \
		echo "bench-check: workloads, seed $$s"; \
		.bench_check/hlperf -workload all -seconds 1 -trace 1 -seed $$s -json .bench_check/workloads-$$s.json >/dev/null || exit 1; \
		.bench_check/benchcheck -baseline testdata/benchcheck/workloads-$$s.json .bench_check/workloads-$$s.json || exit 1; \
	done

# Non-test Go lines per package and in total, benchmark/ excluded: the
# tracked number that should go down (ROADMAP item 5).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		| xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# The total of `make loc` may not exceed LOC_MAX: the total of the last PR
# that lowered it. A PR that lowers the total lowers LOC_MAX to its own; one
# that must raise it says why in the same diff. Raised 24601 -> 24732 by the
# change that gives a replicated line's copy-outs one image (ScheduleCopyouts,
# lineImage, readCopyout in tertiary; one scheduling call per line in core) and
# validates an image's config.json before any device is built (imagefs).
# Raised 24732 -> 24834 by the change that gates the four benchmark workloads'
# exact metrics (benchcheck's second reader, for benchmark result files).
# Raised 24834 -> 25036 by the change that lends the file system's read path
# the disk's immutable extents (dev.Part's Lend slot and media.lend;
# stripe.Farm.ReadParts with per-part splitting and its part-list free list;
# the block map's parts read; lfs's per-block cluster request, copy-before-write
# and dirty set).
# Raised 23699 -> 23815 by the change that stages by reference: a staging
# line's image in core handed to its copy-out, the keeping write through
# lfs.Device, blockMap and stripe.Farm (KeepBlocks), media.keep's per-part
# extent taking in place of media.adopt, the copy-out's read back into the
# staged image with service-wide sibling read buffers, and the farm's
# per-spindle lists on the caller's stack with a lone group run inline; net of
# the quota soft limit's removal (hsm, dump, hlfs, hldump).
# Raised 23815 -> 24082 by the change that discards dead log segments at each
# durable full checkpoint: lfs's per-segment live count and discard pass
# (discard.go, the Discarder seam in DiskDevice and core's block map),
# dev.Disk.Discard with media.discard, stripe.Farm.Discard's whole-row rule,
# and the resident-memory ledger hldump prints (dev.Resident, the disks',
# the farm's and the jukebox's Resident).
# Raised 24082 -> 24179 by the change that gives a parity unit by reference:
# dev.Part's XorOf, the media's pending extents (pend, displace, and the XOR
# computed where own, read, each and held meet one) with the one XOR-of-lanes
# routine the disk runs at write time or later, and the parity write's lane
# lists in stripe, net of writeParity's own XOR loop.
# Raised 24179 -> 24510 by partial rows by reference (dev's extent lend and writeXor, stripe's kept fans and parity-write scratch), the hand-over audit (item 19) and benchcheck -pairs (item 7(a)).
# Raised 24510 -> 24536 by the buffer cache's header free list (dropBuf's
# dropped list, unlock, which frees it at each release of the lock, and
# insertBuf's reuse).
# Raised 24533 -> 24593 by the change that takes serve's per-request
# allocations out of its measured phase: sim.Queue (the kernel's FIFO ring)
# and Kernel.Restart, the stripe fans' and svc's watchdog processes restarted
# rather than spawned, the chunked decision ring, reqtrace's trace free list
# and fetch holds; net of the packed directory edits (encodeDirents now a
# test-only reference, lookupLocked folded into resolveLocked), the finished-
# proc name cap and Chan.TryRecv.
# Lowered 24593 -> 24062 by the change that keeps only the extensions a
# measurement keeps: migrate.Rearranger and tertiary.Service.OnFetched (§5.4),
# the migrator's block-range mode (BlockRange folded into
# RangeTracker.ColdRefs), and examples/dbworkload and examples/relstore.
# Lowered 24062 -> 24047 by the change that makes a deadline a kernel timer
# (sim.Kernel.At, a Ctx's deadline timer and Disarm): svc's per-request
# watchdog processes, fault's outage daemon with its edge sort, and Ctx's
# passive clock check are deleted.
# Lowered 24047 -> 23632 by the change that deletes `hlbench -serve` (its HTTP
# server, bench.ServeMigration's workload and the Prometheus and JSON pages)
# with what only the pages read: attr's per-file records and Snapshot,
# Audit.Recent, Decision.Seconds, Gauge.Max, and svc's per-request admitted
# decision.
# Raised 23632 -> 23675 by the change that makes a checkpoint write only the
# table blocks that changed (writeTablesLocked in lfs keeps each region's
# last image and writes the differing runs) and makes a restaged line's
# moves durable before its segment is reused (one full checkpoint in core's
# restageSegment): a speed-up and a durability fix, with nothing to delete.
# Lowered 23675 -> 22464 by the change that deletes the HSM service surface
# (internal/hsm, core's pin registries and guards, cache.Cache.Locked, lfs's
# tertiary pin flag methods, fsck's pin pass, hlfs's four commands and
# hldump's three views), net of hlfs's truncate command, which keeps
# lfs.File.Truncate linked now that the HSM state file no longer calls it.
# Raised 22464 -> 22488 by the change that holds the write drive's reservation
# only while a copy-out is on its way: the count of writes on their way
# (jukebox.Jukebox.Writing, forwarded by Library.Writing, kept by tertiary's
# dispatch and finishCopyout) and the changer's two hand-over audit records.
# Raised 22488 -> 22595 by sequential read-ahead across tertiary segments: lfs's
# per-file run record and readAhead, the Fetcher's ReadAhead with the block
# map's, tertiary.Service.FetchAhead with sim.Chan.TrySend (in place of the
# blocking requestPrefetch), the prefetch hook asked only after a waited fetch,
# and the two counters (tertiary.prefetches, cache.prefetch_unused).
# Lowered 22595 -> 22255 by the change that deletes svc's per-library circuit
# breakers (breaker.go, tertiary's BreakerGate and its route rank, reqtrace's
# breaker-wait stage, attr's trip/probe/restore verdicts), svc's SLO burn-rate
# gauges and core's periodic repair daemon with its brownout throttle.
# Raised 22255 -> 22271 by the change that holds a drive token only across a
# media transfer: tertiary's turn counters and token cond (takeToken,
# giveToken) in place of the idle cond's signalling rules, and the comments
# that state the new rule; sim.Cond.Signal went (its wake-one is the
# channels' own now).
# Lowered 22271 -> 22237 by the change that makes a timed interval one call
# (obs.Begin and Interval.End fold the span and close the request's stage;
# internal/obs/reqtrace folded into internal/obs, its notes formatted at render
# time) and deletes the unmeasured tape and write-once media profiles
# (jukebox.Metrum, jukebox.SonyWORM, MediaProfile.Tape, Jukebox.WriteOnce).
LOC_MAX = 22237
loc-check:
	@$(MAKE) -s loc | awk -v max=$(LOC_MAX) '{ print } $$2 == "total" { t = $$1 } \
		END { if (t == "" || t > max) { printf "loc-check: %d non-test Go lines, LOC_MAX is %d\n", t, max; exit 1 } }'

# CPU profile of the migrate-and-fetch path: the root package's Table 4 and
# Table 6 benchmarks, once each, profiled into profiles/cpu.pprof (the test
# binary is kept beside it, so pprof can symbolize it). Inspect with
# `go tool pprof profiles/cpu.pprof`.
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'Table4|Table6' -benchtime 1x -o profiles/repro.test -cpuprofile profiles/cpu.pprof .
