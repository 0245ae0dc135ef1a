# Convenience targets; `make check` is what CI runs.

.PHONY: all build test check bench clean

all: build

build:
	dune build

test:
	dune runtest

check: ## build everything, run the full test suite, every example, the bench's paper run with its timing gates, and a short suite run that checks every workload's outputs
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
