#!/bin/sh
# Full local gate: formatting, vet, build, tests (plain and -race), and a
# benchmark smoke run. Any failure, including unformatted files, fails
# the script. Run from the repository root (or via `make check`).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race"
go test -race ./...

echo "== benchmark module"
# delinqbench is its own Go module, so ./... stops at its go.mod: vet
# and test it separately so a broken signature it pins fails here, not
# only when the benchmark runs.
(cd delinqbench && go vet . && go test .)

echo "== chaos (race)"
# The resilience gate: every fault point armed at once under the race
# detector. The pipeline must quarantine the sabotaged benchmarks,
# keep every healthy row golden, and stay deterministic.
go test -race -run 'TestChaos' ./...

echo "== serve chaos (race)"
# The daemon's storm gate: a live listening server under injected
# faults must keep the 400/429/500/503 partition, never let failing
# requests block others, and serve byte-identical healthy responses
# throughout — with the result cache live, so failures never poison
# cached answers and coalesced waiters survive drain. Once a fault
# clears, no in-process memo (builds, runs, trained weights) replays it.
# Table renders run concurrently, stop when their request ends, and
# resolve their id before admission and the cache. A coalesced waiter
# whose own client is still there outlives the client it joined. Every
# failed answer, whole response or batch item, is counted by one rule. A
# Shutdown that lands before Serve starts still stops the daemon.
go test -race -run 'TestServeChaosStorm|TestGracefulDrain|TestDrainAbortsStragglers|TestCacheCoalescesThunderingHerd|TestCacheFailureNotCached|TestCacheHitWhileUnitFails|TestFailingSourcesDoNotBlockOthers|TestCacheDrainAbortsCoalescedWaiters|TestCoalescedWaiterOutlivesLeader|TestPatternFailureLeavesNoState|TestTrainingFaultLeavesNoState|TestTableIDCheckedBeforeAdmission|TestTableCacheKeyCanonical|TestTableRendersConcurrently|TestDrainAbortsTableRender|TestErrorAccounting|TestShutdownBeforeServe' ./internal/server
# Table engines share only the memos: a render joined to another's
# learning phase inherits its quarantines but not its cancellation, two
# ISAs render side by side, and one learning phase runs per ISA.
go test -race -run 'TestJoinedTrainingQuarantines|TestJoinedTrainingOutlivesLeader|TestEnginesRenderTwoISAs|TestTrainingOneFillPerISA' ./internal/tables

echo "== worker chaos (race)"
# The process-isolation gate: sandboxed workers SIGKILLed and OOMed
# mid-request must surface as 500s with worker-stage provenance while
# the daemon keeps serving byte-identical healthy responses, the worker
# telemetry accounts for every spawn exactly, and the durability
# contract (warm replay, never-persist-poison) holds across the process
# boundary.
go test -race -run 'TestWorkerChaosStorm|TestIsolateWorkerOOM|TestIsolateWarmRestartAndPoison' ./internal/server
# The pool's own supervision tests, on their own: inside the whole-tree
# -race stage above they share a loaded host and can time out with it.
go test -race -run 'TestPool|TestServeWorker' ./internal/workerpool

echo "== crash recovery matrix (race)"
# The durability gate: the WAL must survive truncation at every byte
# offset, bit flips across the whole log, interior multi-byte damage,
# and a real SIGKILL at every disk-I/O fault seam — reopening cleanly
# every time, never serving a corrupt byte. The daemon proves the same
# guarantees end to end: warm restarts are byte-identical and poisoned
# fills never persist. An append whose write or fsync fails is rolled
# back, so the store's size stays the file's and the record never
# replays. A record rendered in an older answer format recomputes
# instead of replaying, and a change to an answer's bytes must bump
# that format's version.
go test -race -run 'TestTruncationSweep|TestBitFlipSweep|TestMultiByteCorruption|TestKillMatrix|TestSeam|TestAppendSyncError' ./internal/wal
go test -race -run 'TestWarmRestart|TestPoisonedFillNotPersisted|TestCorruptStateRecovers|TestEvictionDuringReplayCompacts|TestOlderAnswerFormatRecomputes|TestAnswerFormatPinned' ./internal/server
go test -run 'TestCLIServeWarmRestart' ./cmd/delinq

echo "== bench smoke"
# One iteration of the cheap benchmarks: enough to catch a broken
# benchmark without paying for a full measurement run. The simulator
# benchmarks and BenchmarkExecuteKernels cover the dynamic path,
# BenchmarkPatternAnalysis and BenchmarkExecuteProgen the static path
# of a cold analyze, BenchmarkAnalyzeProgram the flat and the
# interprocedural pattern analysis, and BenchmarkCompiler the
# structured build path.
go test -run '^$' -bench 'BenchmarkCacheAccess|BenchmarkVMInstsPerSec|BenchmarkPatternAnalysis|BenchmarkAnalyzeProgram|BenchmarkExecuteProgen|BenchmarkExecuteKernels|BenchmarkCompiler' -benchtime 1x ./...

echo "== coverage floor"
# Packages with dedicated correctness harnesses must stay above 75%
# statement coverage; the committed fuzz corpora count, since they run
# as ordinary tests.
go test -cover \
    ./internal/progen ./internal/interp ./internal/difftest \
    ./internal/trace ./internal/train \
    ./internal/minic ./internal/asm ./internal/obj ./internal/disasm \
    ./internal/cfg ./internal/dataflow ./internal/callgraph \
    ./internal/faultinject ./internal/cache \
    ./internal/server ./internal/metrics \
    ./internal/rescache ./internal/isa ./internal/isa/mips ./internal/isa/arm \
    ./internal/wal ./internal/workerpool \
    ./internal/bench ./internal/tables ./internal/pattern \
    ./internal/core ./internal/classify ./internal/freq \
    ./internal/baseline |
awk '
/coverage:/ {
    pct = $5; sub(/%.*/, "", pct)
    if (pct + 0 < 75) { printf "coverage below 75%%: %s %s\n", $2, $5; bad = 1 }
}
END { exit bad }
'

echo "== loadtest smoke"
# A one-second closed-loop run against an in-process daemon: the load
# generator must come up, drive traffic, and report a self-consistent
# delinq-loadtest/v1 JSON document (the CLI tests cross-check its
# numbers against the daemon's own /metrics).
go run ./cmd/delinq loadtest -workers 2 -duration 1s -keys 4 -o /tmp/delinq-loadtest-smoke.json
rm -f /tmp/delinq-loadtest-smoke.json

echo "== difftest smoke"
# Three-way differential oracle: AST interpreter vs -O0 vs -O over a
# fixed batch of generated programs. Any disagreement fails the gate.
go run ./cmd/delinq difftest -n 200 -seed 1

echo "== dual-ISA golden gate"
# The full differential acceptance batch on both machine descriptions:
# 1000 programs each, zero disagreements required. The interpreter leg
# is machine-independent, so an ARM failure localises to the
# lowering/encoder/decoder/evaluator. Then both committed table goldens
# must re-render byte-identically, and so must the learning phase's
# report (the weights, and each aggregate class's nature, weight and
# relevant-in count).
go run ./cmd/delinq difftest -n 1000 -seed 1
go run ./cmd/delinq difftest -n 1000 -seed 1 -isa arm
go run ./cmd/delinq table S5 > /tmp/delinq-tables-isa.txt
cmp /tmp/delinq-tables-isa.txt tables_isa.txt
rm -f /tmp/delinq-tables-isa.txt
go run ./cmd/delinq train > /tmp/delinq-train.txt
cmp /tmp/delinq-train.txt train_output.txt
rm -f /tmp/delinq-train.txt

echo "== fuzz smoke"
# A short time-boxed run of every native fuzz target; the committed
# corpora under testdata/fuzz/ already ran as ordinary tests above.
sh scripts/fuzz-smoke.sh

echo "OK"
