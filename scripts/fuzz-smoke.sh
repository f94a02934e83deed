#!/bin/sh
# Fuzz smoke: each native fuzz target gets a short time-boxed run (the
# Go fuzzer accepts one -fuzz target per invocation). The committed
# corpora under testdata/fuzz/ already run as ordinary tests; this adds
# a little fresh mutation. `make fuzz-smoke` and scripts/check.sh both
# run it; GO names the go command (default go). Run from anywhere.
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}

fuzz() {
    "$GO" test -fuzz "^$1\$" -fuzztime 5s -run '^$' "$2"
}

fuzz FuzzParse ./internal/minic
fuzz FuzzCompile ./internal/minic
fuzz FuzzAssemble ./internal/asm
fuzz FuzzAsmRoundTrip ./internal/disasm
fuzz FuzzArmLowerRoundTrip ./internal/disasm
fuzz FuzzDecodeImage ./internal/obj
fuzz FuzzLowerImageBytes ./internal/core
fuzz FuzzBuildParity ./internal/core
fuzz FuzzCacheAgainstReference ./internal/cache
