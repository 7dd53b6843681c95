#!/bin/sh
# ci.sh — the repository's verification gate.
#
# Runs the static checks, builds every package, and runs the full test
# suite under the race detector (the taint engine's parallel drain is the
# main concurrency surface). Any failure fails the gate.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> bench/ (vet + smoke test of the end-to-end benchmark module)"
(cd bench && go vet ./... && go test ./...)

echo "==> summary store smoke (round-trip + deliberately corrupted entries degrade to misses)"
go test -run 'TestWarmRunMatchesColdByteForByte|TestCorrupt' ./internal/summarystore/

echo "==> irlint -fixtures (IR verifier over every shipped program) + checklint"
lint_file=$(mktemp)
go run ./cmd/irlint -fixtures -json > "$lint_file"
go run ./scripts/checklint "$lint_file"
rm -f "$lint_file"

echo "==> fuzz smoke (parse-then-verify, seeded with the defect-injector corpus)"
go test -fuzz FuzzParseAndVerify -fuzztime 10s -run '^$' ./internal/irlint/

echo "==> trace smoke (flowdroid -insecurebank -trace) + checktrace"
trace_file=$(mktemp)
# InsecureBank finds leaks, so exit 1 is the expected outcome here; any
# other code is a real failure.
st=0
go run ./cmd/flowdroid -insecurebank -trace "$trace_file" >/dev/null || st=$?
if [ "$st" -ne 1 ]; then
    echo "flowdroid -insecurebank exited $st, want 1 (leaks found)" >&2
    rm -f "$trace_file"
    exit 1
fi
go run ./scripts/checktrace "$trace_file"
rm -f "$trace_file"

echo "==> checkhealth (flowdroidd submit/poll/result, /healthz, /metrics, SIGTERM drain)"
go run ./scripts/checkhealth

echo "==> service soak smoke (bounded queue, fair completion, warm resubmission, drain; race-enabled)"
go test -race -run 'TestServiceSoak|TestServiceWarm' ./internal/service/

echo "CI OK"
