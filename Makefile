# Convenience targets; `make check` is what CI runs.

.PHONY: all build test check bench bench-compile bench-interp bench-fault bench-profile bench-backend bench-sched bench-chaos clean

all: build

build:
	dune build

test:
	dune runtest

check: ## build everything, run the full test suite, every example, and the bench sanity gates
	dune build && dune runtest
	@for src in examples/*.ml; do \
	  name=$$(basename $$src .ml); \
	  echo "example $$name"; \
	  dune exec examples/$$name.exe > /dev/null || exit 1; \
	done
	$(MAKE) bench-compile
	$(MAKE) bench-interp
	$(MAKE) bench-fault
	$(MAKE) bench-profile
	$(MAKE) bench-backend
	$(MAKE) bench-sched
	$(MAKE) bench-chaos

bench:
	dune exec bench/main.exe

bench-compile: ## domain-parallel pipeline gate; fails unless artifacts are byte-identical across domain counts (and >= 1.5x d4 speedup on >= 4-core machines)
	dune exec bench/main.exe -- --compile --quick

bench-interp: ## tree-walker vs closure-compiled interpreter; fails unless outputs agree and compiled is >= 3x faster
	dune exec bench/main.exe -- --interp --quick

bench-fault: ## fault-free vs fault-injected runs; fails unless outputs agree and recovery/fallback behave
	dune exec bench/main.exe -- --faults --quick

bench-profile: ## profiling on vs off; fails unless output is byte-identical, overhead <= 5% and profile data was recorded
	dune exec bench/main.exe -- --profile --quick

bench-backend: ## vitis vs rv differential; fails unless all four programs produce byte-identical output on every backend
	dune exec bench/main.exe -- --backends --quick

bench-sched: ## 1000-job queue on 1 vs 4 devices; fails unless zero drops, byte-identical output and >= 2x makespan speedup, plus drain/fallback fault runs
	dune exec bench/main.exe -- --sched --quick

bench-chaos: ## seeded chaos campaign on the resilience layer; fails unless jobs are conserved, clean runs are transparent, chaos runs are deterministic and p99 stays bounded
	dune exec bench/main.exe -- --chaos --quick

clean:
	dune clean
