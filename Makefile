# Convenience targets; scripts/ci.sh is the authoritative gate.

.PHONY: all build test race vet fuzz bench-smoke ci

all: ci

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Short fuzz pass over the IR parser (satellite of the resilience work).
fuzz:
	go test -fuzz FuzzParse -fuzztime 30s ./internal/irtext/

# One-shot run of every root Smoke benchmark; rewrites BENCH_taint.json
# and BENCH_metrics.json.
bench-smoke:
	go test -bench Smoke -benchtime=1x -run '^$$' .

ci:
	./scripts/ci.sh
