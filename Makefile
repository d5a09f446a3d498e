# cacheeval — build/test/reproduce targets.

GO ?= go

.PHONY: all ci build vet fmt-check lint staticcheck govulncheck test test-short test-race perfbench-check bench bench-smoke benchjson benchcheck fuzz cover repro repro-check serve obs-smoke examples fmt clean

# `all` is `ci` plus the full (non-short) test suite; vet/gofmt run once via
# the ci target rather than being listed twice.
all: ci test

# ci mirrors .github/workflows/ci.yml locally: build, vet, gofmt check,
# short tests, short tests under the race detector, and the perfbench
# module (its own go.mod, compiled against this module's internals).
ci: build vet fmt-check test-short test-race perfbench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Static analysis beyond go vet. Both tools run via `go run tool@version`,
# so they are fetched on demand and never become module dependencies; the
# pinned versions keep CI reproducible. Bump deliberately.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4
lint: staticcheck govulncheck

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race -short ./...

# perfbench is a separate module (replace cacheeval => ../), so ./... from
# the root does not reach it; vet and short-test it on its own.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

# One benchmark per paper artifact plus the microbenchmarks (reduced scale).
bench:
	$(GO) test -bench=. -benchmem ./...

# Smoke-run every benchmark once so the bench targets cannot silently rot;
# mirrors the CI bench job.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Record the perf trajectory: run the artifact + simulator benchmarks
# (including the exact/sampled/parallel/hierarchy sweep family, the workload
# generator and the materialize layer) and merge the numbers into
# BENCH_7.json under the "after" key (use BENCHKEY=before to record a
# baseline first). Prior records (BENCH_2..6.json) are kept as history.
BENCHKEY ?= after
BENCHREGEX = Table|Figure|Cache|MultiSystem|FanoutSystem|Sweep|Generator|CollectMix
benchjson:
	$(GO) test -run '^$$' -bench '$(BENCHREGEX)' -benchmem . \
		| $(GO) run ./cmd/benchjson -key $(BENCHKEY) -o BENCH_7.json

# Local regression check: one quick iteration of the recorded benchmarks
# against the BENCH_7.json record. Meaningful only on the machine that
# recorded the baseline (absolute timings are machine-specific); CI instead
# runs a blocking gate that baselines the merge-base on the same runner
# (see .github/workflows/ci.yml, bench-smoke job).
BENCHTHRESHOLD ?= 1.5
BENCHBASE ?= BENCH_7.json
benchcheck:
	$(GO) test -run '^$$' -bench '$(BENCHREGEX)' -benchtime=1x . \
		| $(GO) run ./cmd/benchjson -against $(BENCHBASE) -threshold $(BENCHTHRESHOLD)

# Fuzz smoke: run every Fuzz* target in the packages that define them for
# FUZZTIME each (native go fuzzing; seeds always run under plain `go test`).
FUZZTIME ?= 30s
FUZZPKGS = ./internal/trace ./internal/cache ./internal/server ./internal/workload
fuzz:
	@set -e; for pkg in $(FUZZPKGS); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "=== fuzz $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Coverage profile over the short suite (the conformance harness drives the
# simulators hard enough that short mode is representative). The hierarchy
# engine source added for the two-level/victim work carries a hard statement
# floor: it is the newest simulator surface, and the oracle lockstep suite is
# supposed to keep it hot — falling below the floor means the conformance
# grids stopped reaching code they were written to pin.
COVERFLOOR ?= 85
COVERFLOORFILE = internal/cache/hierarchy.go
cover:
	$(GO) test -short -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -n 1
	@awk -v floor=$(COVERFLOOR) -v file=$(COVERFLOORFILE) 'index($$1, file ":") { total += $$2; if ($$3 > 0) covered += $$2 } END { if (total == 0) { print "cover: no statements matched " file; exit 1 } pct = 100 * covered / total; printf "cover floor: %s %.1f%% of statements (floor %d%%)\n", file, pct, floor; if (pct < floor) { print "cover: hierarchy coverage below floor"; exit 1 } }' cover.out

# Regenerate every table and figure at the paper's run lengths (~1 min).
repro:
	$(GO) run ./cmd/paperrepro

# Regenerate the full-scale reproduction and diff it against the archived
# results/paperrepro_full.txt; any moved digit fails (~40 s on 2 cores).
repro-check:
	$(GO) run ./cmd/paperrepro -q | diff -u results/paperrepro_full.txt -

# Run the evaluation service on :8080.
serve:
	$(GO) run ./cmd/cacheserved

# End-to-end observability smoke: start cacheserved on an ephemeral port,
# hit /healthz and both /metrics formats, run one simulation, and verify
# the Prometheus families, histogram buckets and JSON access log.
obs-smoke:
	sh scripts/obs_smoke.sh

# Run all example programs.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/designspace
	$(GO) run ./examples/multiprog
	$(GO) run ./examples/prefetch
	$(GO) run ./examples/workloadchoice

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
