#!/usr/bin/env bash
# The one command: build the program (for target/release/imr-worker), build
# the benchmark, run it. Arguments go to imr-benchmark unchanged, e.g.
#   benchmark/run.sh                       every workload, both passes
#   benchmark/run.sh --check-agreement     the end-to-end suite twice
#   benchmark/run.sh --quick               smoke sizes, not comparable
#   benchmark/run.sh --workload pagerank_tcp --seed 3 --seconds 8 --trace 0
# Machine-readable results go to stdout, tables and build output to stderr.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
  echo "benchmark/run.sh: no program to measure here (the root Cargo.toml and crates/ are missing)" >&2
  exit 2
fi

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --target-dir "$target" >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

worker="$target/release/imr-worker"
if [ ! -x "$worker" ]; then
  echo "benchmark/run.sh: $worker is missing after the root build; the TCP workload cannot run" >&2
  exit 2
fi
IMR_WORKER_BIN="$worker" exec "$target/release/imr-benchmark" "$@"
