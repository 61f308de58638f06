# Single entry points shared by CI (.github/workflows/ci.yml) and humans:
# CI invokes exactly these targets so a green `make ci` locally means a
# green check remotely.

GO ?= go

# Pinned so CI is reproducible; `go install` this version locally to run
# the same check the workflow runs.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test race bench bench-module minuteserve minuteserve-json lint fmt doccheck docs-check analyze cross install-staticcheck ci

build:
	$(GO) build ./...

# Without -race: the allocation-budget tests (TestAllocBudgets and the
# AllocsPerRun tests of the internal packages) skip themselves under the
# race detector, so this is the run that gates them.
test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration per benchmark: the smoke run CI executes. For local
# profiling only; performance claims are measured with
# `bash benchmark/run.sh`.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# The benchmark module (benchmark/, a Go module of its own) drives the
# stack through its public entry points; its smoke test is the only
# thing that compiles it, so a signature change there fails here.
bench-module:
	cd benchmark && $(GO) test ./...

# Gate the committed MinuteServe leaderboard golden: regenerate the
# board under the fixed rules and require byte-equality with
# MINUTESERVE.json (verification of the signature included). CI runs
# this on every commit; a legitimate rules or entry change regenerates
# the golden with `make minuteserve-json`.
minuteserve:
	$(GO) run ./cmd/mugibench -minuteserve -check MINUTESERVE.json

# Regenerate and re-sign the committed leaderboard golden after a
# deliberate rules or entry change (review the -diff before committing).
minuteserve-json:
	$(GO) run ./cmd/mugibench -minuteserve -report MINUTESERVE.json

# Godoc coverage gate: every package and every exported symbol of every
# package documented. A prerequisite of both lint and docs-check; make dedupes
# it within one invocation, so `make ci` runs it once.
doccheck:
	$(GO) run ./tools/doccheck

# STRICT=1 (set by the ci target) turns a missing staticcheck from a
# skip into a failure, so `make ci` cannot go green without running the
# same check the workflow runs.
lint: doccheck
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needs to run on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ -n "$(STRICT)" ]; then \
		echo "staticcheck is required here; install the pinned version with 'make install-staticcheck'"; \
		exit 1; \
	else \
		echo "staticcheck not installed; skipping ('make ci' fails without it; 'make install-staticcheck' installs $(STATICCHECK_VERSION))"; \
	fi

# The pinned staticcheck, the one CI runs; a one-time local install.
install-staticcheck:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# The repo's contract linter (docs/ANALYSIS.md): determinism,
# state-machine exhaustiveness and zero-alloc invariants, proven at lint
# time by tools/mugivet. Zero findings is the gate; waivers in the tree
# carry their reasons inline.
analyze:
	$(GO) run ./tools/mugivet ./...

fmt:
	gofmt -w .

# Type-check the tree, tests included, for two GOARCHes without the amd64
# assembly: arm64 builds internal/core's Go GEMM loop alone, and 386 has a
# 32-bit int, so a constant that only fits 64 bits fails here. Then build
# the GEMM's and the simulator's packages for arm64 and fail on any fused
# multiply-add in them: Go fuses x*y + z there unless the product is
# rounded with float64(...), and a fused op gives arm64 other bits.
FUSED_CHECK_PKGS = ./internal/core ./internal/sim ./internal/arch ./internal/noc

cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	for p in $(FUSED_CHECK_PKGS); do \
		GOARCH=arm64 $(GO) build -o "$$dir/$$(basename $$p).a" $$p || exit 1; \
	done; \
	out="$$(for a in "$$dir"/*.a; do $(GO) tool objdump "$$a"; done | grep -E 'FN?M(ADD|SUB)')"; \
	if [ -n "$$out" ]; then \
		echo "fused multiply-adds in the arm64 builds of $(FUSED_CHECK_PKGS):"; echo "$$out"; exit 1; \
	fi

# Documentation gates: godoc coverage (the doccheck prerequisite) and
# docs/*.md code-fence validity (go fences parse; make targets, go run
# paths, CLI flags, and relative links all resolve against the tree).
docs-check: doccheck
	$(GO) run ./tools/docscheck

ci: STRICT = 1
ci: lint build test race bench bench-module minuteserve analyze docs-check cross
