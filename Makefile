# Convenience targets; `make check` is what CI runs.

.PHONY: all build test check bench clean

all: build

build:
	dune build

test:
	dune runtest

check: ## check that arith op names stay in Arith and that only the trace replay records sim spans, then build everything, run the full test suite, every example, the bench's paper run with its timing gates, and a short suite run that checks every workload's outputs
	@if grep -rn --include='*.ml' '"arith\.' lib | grep -v -e '^lib/dialects/arith\.ml:' -e '^lib/ir/'; then \
	  echo 'arith op names belong to lib/dialects/arith.ml: match on Arith.kind or call its builders'; \
	  exit 1; \
	fi
	@if grep -rn --include='*.ml' 'record_sim' lib bin | grep -v -e '^lib/obs/span\.ml:' -e '^lib/runtime/trace\.ml:'; then \
	  echo 'a charge is recorded once, in the run trace: sim spans come from Trace.replay_spans'; \
	  exit 1; \
	fi
	dune build && dune runtest
	@for src in examples/*.ml; do \
	  name=$$(basename $$src .ml); \
	  echo "example $$name"; \
	  dune exec examples/$$name.exe > /dev/null || exit 1; \
	done
	dune exec bench/main.exe -- --quick
	dune exec bench/suite/suite.exe -- --seconds 1

bench:
	dune exec bench/main.exe

clean:
	dune clean
