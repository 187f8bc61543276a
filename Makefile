.PHONY: all build test check fmt bench bench-serve bench-update clean

all: build

build:
	dune build

test:
	dune runtest

# The pre-commit gate: format (when ocamlformat is available),
# compile everything, and run the full test suite.
check: fmt build test

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt --auto-promote; \
	else \
	  echo "fmt: ocamlformat not installed, skipping (CI enforces it)"; \
	fi

bench:
	dune exec bench/main.exe

# Paper-scale serving benchmark: batched estimation vs the oracle,
# with throughput and bit-identity gates. Appends a JSON line to
# BENCH_serve.json.
bench-serve:
	dune exec bench/main.exe -- serve

# Incremental-maintenance benchmark: an XMark update stream applied to
# a live builder (localized repair) vs a from-scratch rebuild, with
# >= 10x speedup and < 1% added-error gates, plus the generation-swap
# protocol checks. Appends a JSON line to BENCH_update.json.
bench-update:
	dune exec bench/main.exe -- update

clean:
	dune clean
