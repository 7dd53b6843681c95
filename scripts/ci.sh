#!/bin/sh
# ci.sh — the repository's verification gate.
#
# Runs the static checks, builds every package, and runs the full test
# suite under the race detector (the taint engine's parallel drain is the
# main concurrency surface). Any failure fails the gate.
set -eu

cd "$(dirname "$0")/.."

# CI writes no tracked file: the working tree's status must read the same
# at the end as now. Skipped when the tree is not a git checkout.
check_tree=0
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    tree_status=$(git status --porcelain)
    check_tree=1
fi

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt would reformat:" >&2
    printf '%s\n' "$unformatted" >&2
    exit 1
fi

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

echo "==> fuzz smoke (constprop: no panic, deterministic sites, idempotent Materialize)"
go test -fuzz FuzzConstprop -fuzztime 10s -run '^$' ./internal/constprop/

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

if [ "$check_tree" -eq 1 ]; then
    echo "==> working tree unchanged by CI"
    after=$(git status --porcelain)
    if [ "$after" != "$tree_status" ]; then
        echo "CI changed the working tree; git status --porcelain was:" >&2
        printf '%s\n' "$tree_status" >&2
        echo "and is now:" >&2
        printf '%s\n' "$after" >&2
        exit 1
    fi
fi

echo "CI OK"
