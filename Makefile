GO ?= go

.PHONY: build test race check bench tables fmt difftest fuzz-smoke loadtest

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check runs the full gate: gofmt -l (failure if any file is
# unformatted), go vet, build, tests with and without -race, and a
# one-iteration benchmark smoke run.
check:
	sh scripts/check.sh

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

tables:
	$(GO) run ./cmd/delinq table all

# difftest runs the three-way differential oracle (AST interpreter vs
# -O0-compiled vs -O-compiled execution) over 1000 generated programs.
difftest:
	$(GO) run ./cmd/delinq difftest -n 1000 -seed 1

# fuzz-smoke gives every native fuzz target a short time-boxed run; the
# committed corpora under testdata/fuzz/ also run as part of `make test`.
fuzz-smoke:
	GO=$(GO) sh scripts/fuzz-smoke.sh

# loadtest drives five seconds of skewed closed-loop load at an
# in-process daemon and refreshes the committed BENCH_serve.json, then
# repeats the identical run with sandboxed subprocess workers to
# refresh the isolation-overhead reference BENCH_serve_isolate.json.
loadtest:
	$(GO) run ./cmd/delinq loadtest -workers 8 -duration 5s -keys 16 -skew 1.2 -seed 1 -o BENCH_serve.json
	$(GO) run ./cmd/delinq loadtest -workers 8 -duration 5s -keys 16 -skew 1.2 -seed 1 -isolate -o BENCH_serve_isolate.json

fmt:
	gofmt -w .
