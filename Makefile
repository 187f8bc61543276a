.PHONY: all build test check fmt bench bench-serve bench-fault bench-chaos bench-update clean

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

# Paper-scale serving benchmark: batched estimation vs the planned
# path, with throughput, latency percentiles, and bit-identity gates.
# Appends a JSON line to BENCH_serve.json.
bench-serve:
	dune exec bench/main.exe -- serve

# Robustness smoke: bounded codec fuzz plus a save/load storm through
# the Fault injection sites (honors XC_FAULTS; exits non-zero on any
# contract violation). Appends a JSON line to BENCH_fault.json.
bench-fault:
	dune exec bench/main.exe -- fault

# Serving-plane chaos benchmark: stalled-peer isolation, slow-loris
# eviction timing, overload shedding (typed Overloaded + with_retry
# recovery), seeded fault storms over serve.accept / serve.send /
# serve.deadline / client.connect with bit-identity through and after
# each storm, and timed graceful drain — hard gates, exits non-zero on
# any violation (honors XC_CHAOS_SEED). Appends a JSON line to
# BENCH_chaos.json.
bench-chaos:
	dune exec bench/main.exe -- chaos

# Incremental-maintenance benchmark: an XMark update stream applied to
# a live builder (localized repair) vs a from-scratch rebuild, with
# >= 10x speedup and < 1% added-error gates, plus the generation-swap
# protocol checks. Appends a JSON line to BENCH_update.json.
bench-update:
	dune exec bench/main.exe -- update

clean:
	dune clean
