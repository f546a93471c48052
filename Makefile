GO ?= go

.PHONY: check chaos chaos-scenarios chaos-search chaos-topology build test vet lint bench bench-smoke bench-shards outputs-diff fuzz-smoke

# Pinned so CI runs reproduce: bump deliberately, not via a floating tag.
STATICCHECK_VERSION ?= 2024.1.1

# Per-target budget for the fuzz smoke run.
FUZZ_TIME ?= 15s

# Revision outputs-diff compares the working tree against.
BASE ?= HEAD

## check: the full gate — gofmt, vet, build, and the whole suite under the
## race detector (includes the crash-recovery smoke tests alongside everything
## else), then vet and test the benchmark/ module, which has its own go.mod
## and so is outside ./... of the root module. Needs no network.
check:
	@files=$$(gofmt -l .); test -z "$$files" || { echo "gofmt needed:"; echo "$$files"; exit 1; }
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

## chaos: the fault-injection + crash chaos suite (fixed seeds 1-5): exact
## collectives under drop/corrupt/jitter/stall, deterministic traces, flap
## healing, dead-node timeouts, resource-pressure runs under capped trigger
## lists (complete exactly or return a watchdog diagnosis — never hang), the
## NIC reliability and trigger-fault property tests, the crash-restart
## matrix: mid-collective crashes with epoch-fenced rejoin, heartbeat
## membership convergence, and recoverable Jacobi reintegration — the
## partition matrix: clean and asymmetric cuts, gray links under static vs
## adaptive RTO, split-brain refusal, and mid-collective heal rejoin — and
## the SDC matrix: silent wire/buffer/reducer corruption caught by the e2e
## checksum and claim chain, with blame-driven permanent quarantine and
## exact sums over the post-quarantine membership — and the straggler
## matrix: fail-slow GPU/cmd/DMA classes under hedged collectives, with
## progress-based Slow verdicts, ring bypass of confirmed stragglers,
## recovery/rejoin, and exact sums over the responsive membership — and
## the trigger-path oracle: counted trigger writes and gang wakes agree
## with the per-write reference on every fire, NIC counter and result.
chaos:
	$(GO) test -race -v -run 'TestChaos|TestReliable|TestAllreduceTimeout|TestAllreduceRingHeal|TestRelaxedSyncRace|TestTriggerWriteLoss|TestCrash|TestRecoverable|TestRestartEpoch|TestStaleSrc|TestCancelTriggered|TestMarkPeerCrashed|TestSuite|TestPeerDead|TestPartition|TestDoubleCrash|TestAdaptiveRTO|TestLinkHealth|TestMatrixClassifies|TestSymmetricCut|TestHealReturns|TestSDC|TestQuarantineIsPermanent|TestSlow|TestStraggler|TestHedged|TestZeroConfigIsBitForBit|TestTriggerPathsAgree' ./internal/collective/ ./internal/nic/ ./internal/health/ ./internal/workloads/jacobi/ ./internal/sim/

## chaos-scenarios: the composed correlated-failure matrix under the race
## detector — every backend x chaos seeds 1-5 x {rack-crash+cut,
## gray+straggler, restart-storm} completes exactly at zero audit
## violations, plus scenario determinism (byte-identical reruns, shard
## invariance, zero-config bit-for-bit), the scenario flag grammar, and the
## seeded double-fire / stale-delivery auditor regressions.
chaos-scenarios:
	$(GO) test -race -v -count=1 -run 'TestScenario|TestZeroConfigIsBitForBit|TestApplyScenario|TestAuditor|TestChaosScenario|TestChaosSearch|TestSampledScenarios' ./internal/collective/ ./internal/fault/ ./internal/config/ ./internal/nic/ ./internal/bench/

## chaos-topology: the fat-tree failure-domain matrix under the race
## detector at full scale (CHAOS_TOPOLOGY_FULL=1: every backend x chaos
## seeds 1-5 x {spine-kill, pod-cut, incast-storm} at 64 nodes) plus the
## fabric unit suite: spine/trunk kill rerouting, named Unrouteable
## diagnoses, credit/ECN bounds, hop conservation under kills, shard-count
## invariance, and the zero-config bit-for-bit guarantee. The 256-node
## pod-scale smoke runs without -race (wall-clock, not correctness).
chaos-topology:
	CHAOS_TOPOLOGY_FULL=1 $(GO) test -race -v -count=1 -timeout 60m -run 'TestFatTree|TestTopologyChaosMatrix|TestLookahead|TestZeroConfigIsBitForBit' ./internal/collective/ ./internal/network/
	CHAOS_TOPOLOGY_FULL=1 $(GO) test -v -count=1 -timeout 30m -run 'TestTopologyChaos256Smoke' ./internal/collective/

## chaos-search: a budgeted shrinking chaos search per seeded protocol bug —
## each must be found, minimized, and emitted as a replayable -scenario-*
## flag line; the honest search must come back clean. CI runs this nightly
## and uploads the reproducer output.
chaos-search:
	$(GO) run ./cmd/gputn-bench -exp chaossearch -chaos-seed 42 -chaos-trials 4
	$(GO) run ./cmd/gputn-bench -exp chaossearch -chaos-seed 42 -chaos-trials 4 -chaos-inject doublefire

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

## lint: vet plus staticcheck at a pinned version. Fetches the tool, so it
## needs network — CI runs it; local `make check` stays offline-friendly.
lint:
	$(GO) vet ./...
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

## bench: the full simulator perf run (events/sec, allocs/event, wall time
## per experiment, each the median of 3 timed runs, with the events/sec
## spread); refreshes the BENCH_sim.json baseline at the repo root.
bench:
	$(GO) run ./cmd/gputn-bench -exp perf -perf-preset full -bench-out BENCH_sim.json

## bench-smoke: the reduced perf run CI uses — times each experiment 3
## times and compares it against the committed BENCH_sim.json baseline,
## failing on a changed event count, allocs/event up by more than 0.02,
## or a median events/sec >30% below the baseline's. The fresh smoke
## report goes to BENCH_SMOKE_OUT (untracked), never over the committed
## full baseline, which only `make bench` rewrites.
BENCH_SMOKE_OUT ?= bench-smoke.json
bench-smoke:
	$(GO) run ./cmd/gputn-bench -exp perf -perf-preset smoke -bench-baseline BENCH_sim.json -bench-out $(BENCH_SMOKE_OUT)

## bench-shards: the parallel-engine smoke — runs fig10 at the default
## layout and at -shards 1 and -shards 4 on the star and on the fat-tree
## (-topo fattree), and the packet-loss sweep (faults)
## at the default and at -shards 4, failing if any split run's simulated
## output diverges from the default's (shard-count invariance is the
## engine's correctness contract; DESIGN.md §15), then runs the shard
## determinism matrix under the race detector. The binary and outputs live
## in a private temporary directory, removed on exit, so concurrent runs
## cannot clobber each other.
bench-shards:
	set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/gputn-bench" ./cmd/gputn-bench; \
	"$$dir/gputn-bench" -exp fig10 > "$$dir/fig10-serial.txt"; \
	"$$dir/gputn-bench" -exp fig10 -shards 1 | grep -v '^engine: sharded' > "$$dir/fig10-s1.txt"; \
	"$$dir/gputn-bench" -exp fig10 -shards 4 | grep -v '^engine: sharded' > "$$dir/fig10-s4.txt"; \
	diff "$$dir/fig10-serial.txt" "$$dir/fig10-s1.txt"; \
	diff "$$dir/fig10-serial.txt" "$$dir/fig10-s4.txt"; \
	"$$dir/gputn-bench" -exp fig10 -topo fattree > "$$dir/fig10-ft.txt"; \
	"$$dir/gputn-bench" -exp fig10 -topo fattree -shards 1 | grep -v '^engine: sharded' > "$$dir/fig10-ft-s1.txt"; \
	"$$dir/gputn-bench" -exp fig10 -topo fattree -shards 4 | grep -v '^engine: sharded' > "$$dir/fig10-ft-s4.txt"; \
	diff "$$dir/fig10-ft.txt" "$$dir/fig10-ft-s1.txt"; \
	diff "$$dir/fig10-ft.txt" "$$dir/fig10-ft-s4.txt"; \
	"$$dir/gputn-bench" -exp faults > "$$dir/faults-default.txt"; \
	"$$dir/gputn-bench" -exp faults -shards 4 | grep -v '^engine: sharded' > "$$dir/faults-s4.txt"; \
	diff "$$dir/faults-default.txt" "$$dir/faults-s4.txt"
	GOMAXPROCS=4 $(GO) test -race -run 'TestShard' -count=1 ./internal/sim/ ./internal/collective/

## outputs-diff: the byte-identity gate for changes that must not move any
## simulated output. Builds gputn-bench and every examples/ program from
## BASE (a git revision, default HEAD; extracted with git archive, so no
## worktree is registered) and from the working tree, then runs both sides
## and diffs: every experiment of -exp all (read from -list), the folded
## extensions (timelines, mlsweep, mltrain, sensitivity), fig10 on the
## fat-tree and at -shards 4, the chaos search with and without the seeded
## double-fire bug, and all examples. Runs every check, lists each output
## that differs (a run that exits non-zero appends its exit status to its
## output, so it is compared too), and fails at the end if any did; the
## temporary directory is removed on exit.
outputs-diff:
	set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	mkdir "$$dir/src" "$$dir/base" "$$dir/new"; \
	git archive "$(BASE)" | tar -x -C "$$dir/src"; \
	for side in base new; do \
		src=.; test "$$side" = new || src="$$dir/src"; \
		(cd "$$src" && $(GO) build -o "$$dir/$$side/gputn-bench" ./cmd/gputn-bench && \
			for ex in examples/*/; do $(GO) build -o "$$dir/$$side/example-$$(basename "$$ex")" "./$$ex"; done); \
	done; \
	differ=; \
	check() { name=$$1; prog=$$2; shift 2; \
		for side in base new; do out="$$dir/$$side/$$name.txt"; \
			"$$dir/$$side/$$prog" "$$@" > "$$out" || echo "exit status $$?" >> "$$out"; done; \
		if diff "$$dir/base/$$name.txt" "$$dir/new/$$name.txt"; then echo "identical: $$name"; \
		else echo "DIFFERS: $$name"; differ="$$differ $$name"; fi; }; \
	exps=$$("$$dir/new/gputn-bench" -list | awk '!/not part of -exp all/ && $$1 != "figures" && $$1 != "all" { print $$1 }'); \
	for exp in $$exps timelines mlsweep mltrain sensitivity; do check "$$exp" gputn-bench -exp "$$exp"; done; \
	check fig10-fattree gputn-bench -exp fig10 -topo fattree; \
	check fig10-shards4 gputn-bench -exp fig10 -shards 4; \
	check chaossearch gputn-bench -exp chaossearch -chaos-seed 42 -chaos-trials 4; \
	check chaossearch-doublefire gputn-bench -exp chaossearch -chaos-seed 42 -chaos-trials 4 -chaos-inject doublefire; \
	for ex in examples/*/; do check "example-$$(basename "$$ex")" "example-$$(basename "$$ex")"; done; \
	test -z "$$differ" || { echo "outputs-diff: differing outputs:$$differ"; exit 1; }

## fuzz-smoke: every committed Fuzz* target under the actual fuzzer for
## FUZZ_TIME each — plain `go test` only replays their seed corpora. The
## engine allows one -fuzz pattern per invocation, so targets run serially.
## The target list is discovered from the tree, so a new Fuzz* function is
## picked up without touching this file.
fuzz-smoke:
	@set -e; \
	grep -rlE '^func Fuzz' --include='*_test.go' internal | sort | while read -r file; do \
		dir=$$(dirname "$$file"); \
		grep -hoE '^func Fuzz[A-Za-z0-9_]*' "$$file" | sed 's/^func //' | while read -r target; do \
			echo "==> $$target ./$$dir/"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZ_TIME) "./$$dir/" || exit 1; \
		done || exit 1; \
	done
