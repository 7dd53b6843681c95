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

# Smoke test of the end-to-end benchmark module: every workload on two
# apps, plain and traced. Writes no tracked file.
bench-smoke:
	cd bench && go test ./...

ci:
	./scripts/ci.sh
