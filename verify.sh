#!/usr/bin/env bash
# Local verification, shared verbatim by CI: every job in
# .github/workflows/ci.yml invokes exactly one subcommand of this
# script, so the pipeline can never drift from what `./verify.sh`
# checks on a developer machine.
#
#   ./verify.sh            # everything, in the order listed below
#   ./verify.sh fmt        # rustfmt check
#   ./verify.sh lint       # clippy, warnings denied
#   ./verify.sh build      # release build of the whole workspace
#   ./verify.sh test       # debug test suite + release cross-engine suite
#   ./verify.sh bench      # bad invocations of all, trace_timeline,
#                          # imr-jobs, imr-worker and imr-stat exit 2 with
#                          # a message; smoke-run every experiment
#                          # (--bin all) at tiny size, rerun it at
#                          # default scale and diff against results/, then
#                          # benchmark/run.sh --quick (must be correct)
#   ./verify.sh drift      # verify.sh subcommands <-> CI jobs bijection,
#                          # wire enums <-> DESIGN.md §8 message table,
#                          # WIRE_VERSION <-> the version DESIGN.md names
#                          # (§8's setup-frame heading and invariant row,
#                          # §12), PairMode's codec tags <-> §8's mode-tag
#                          # table,
#                          # every IterConfig builder has a caller,
#                          # imr-bench's EXPERIMENTS ids <-> results/*.json,
#                          # every counter_schema! counter <-> one DESIGN.md
#                          # §9 row whose consumer (a test fn, a benchmark/
#                          # row, a results/ note) reads it,
#                          # tests/budget.rs's BUDGETS <-> DESIGN.md §6's
#                          # budget ledger (rows and budgets),
#                          # BENCH_*.json rows <-> BENCHMARK.json (needs jq),
#                          # the newest CHANGES.md entry <= 6000 bytes,
#                          # every file a code scan names exists,
#                          # one `unsafe` site (crc.rs) besides the one
#                          # `unsafe impl GlobalAlloc` (tests/budget.rs),
#                          # no unannotated panic site (`Option::unwrap`
#                          # paths included) in imr-net / imr-native, the sim
#                          # drivers (engine, aux, incremental), core's
#                          # config,
#                          # the core and shuffle kernels (accum, kernel,
#                          # static_part, shuffle, sorted, codec), core's store, observe,
#                          # iter_engine, ctl and supervise, or the DFS facade and
#                          # snapshot naming (dfs lib, snapshot), and the
#                          # iteration kernel (map_side, reduce_side,
#                          # delta_out, delta_in) called from the pair loop
#                          # (crates/core/src/pair.rs) alone, the
#                          # static dir read in pair.rs through
#                          # StaticPart alone (no ctx.load of it), and a
#                          # rollback recorded (migration_marker,
#                          # flight_path, recoveries.add, migrations.add)
#                          # by the master (crates/core/src/supervise.rs)
#                          # alone, one fault path (no `fn relocate`
#                          # under crates/core/src, no literal empty
#                          # fault list `(&[], None)` in engine.rs, no
#                          # `fail_node(` in core outside sim_env.rs), and
#                          # TCP reached through IterEngine
#                          # (no run_remote_incremental anywhere, no
#                          # `.run_remote(` call outside
#                          # benchmark/src/adapter.rs, no `pub fn run*`
#                          # in `impl IterativeRunner`), and one
#                          # iteration for jobs of any number of phases
#                          # (no fetch_segments, PhaseJob or run_two_phase
#                          # named under crates/*/src, src or examples),
#                          # every ToCoord/ToWorker variant constructed
#                          # outside proto.rs and tests (a tag nothing
#                          # sends fails), and no patch_verify, send_trace,
#                          # speculative or parse_text under crates/*/src,
#                          # src or examples (nor PatchStats in imr-net /
#                          # imr-native), and no TransportKind,
#                          # with_incremental_mode, .accumulative or
#                          # .incremental under crates/*/src (imr-net
#                          # included), src or examples, and no
#                          # PatchEffect, worsening_ops, empty_static or
#                          # state_eq (Incremental's four methods) under
#                          # crates/*/src, src or examples, and no
#                          # with_delta_batch or delta_batch (a round
#                          # applies a share of its pending keys) under
#                          # crates/*/src, crates/*/tests, src, tests or
#                          # examples
#   ./verify.sh <suite>    # one row group of the SUITES table: faults,
#                          # observe, service, delta, chaos, incremental
#
# Performance is not judged here: `benchmark/run.sh` (declared in
# BENCHMARK.json) is the perf baseline; `bench` only proves the
# experiments still run and emit well-formed artifacts, and that
# the benchmark itself still builds, runs and verifies its outputs.
set -euo pipefail
cd "$(dirname "$0")"

cmd_fmt() {
  cargo fmt --all --check
}

cmd_lint() {
  cargo clippy --workspace --all-targets -- -D warnings
}

cmd_build() {
  cargo build --release --workspace
}

cmd_test() {
  # Tier-1 verbatim: the workspace's default-members make this the
  # umbrella integration suites plus every crate's unit suite.
  cargo test -q
  # The cross-engine exactness suite again under -O: the TCP
  # multi-process transport and the channel fabric must stay
  # bit-identical to the simulation engine with optimized codegen and
  # release-build worker binaries too.
  cargo test -q --release --test cross_engine
}

# The serial suites, one row per `cargo test` invocation:
#
#   <subcommand> <timeout-seconds> <cargo test args…>
#
# Each row runs as `timeout N cargo test -q <args…> -- --test-threads=1`.
# Serial under a timeout because these suites spawn real worker threads
# and real worker OS processes, then recover from injected kills, hangs,
# crashes and wire faults: a regression must show up as a clean failure,
# never a hung CI job. A subcommand's rows run in order, then its
# `smoke_<subcommand>` hook if one is defined below. Adding a suite is
# one row here (plus its CI job — `drift` checks the two stay in step).
#
#   faults       checkpoint rollback after kills/hangs/crashes, and the
#                native crate's watchdog/migration monitor
#   observe      the one observability pipeline (DESIGN.md §9): trace
#                and telemetry crate units, cross-engine trace
#                determinism, the flight recorder, sampled series, and
#                histogram == spans on every engine
#   service      multi-tenant job service: 20-job stress, coordinator
#                kill + bit-identical resume, DLQ, priority, drain
#   delta        barrier-free delta-accumulative mode (DESIGN.md §11)
#   chaos        hardened wire protocol under seeded network chaos (§12)
#   incremental  warm re-convergence vs cold recompute (§13)
SUITES='
faults      600 --test fault_tolerance
faults      600 -p imr-native
observe     600 -p imr-trace
observe     600 -p imr-telemetry
observe     600 --test tracing
observe     900 --release --test telemetry
observe     900 --release --test observe
service     600 -p imr-jobs
service     900 --release --test job_service
delta       600 -p imapreduce accum
delta       600 -p imr-algorithms accumulative
delta       600 -p imr-bench --test metrics_reset
delta       900 --release --test cross_engine delta_
delta       600 --test properties delta_
delta       900 --test fault_tolerance delta_
chaos       600 -p imr-net
chaos       900 --release --test chaos
incremental 600 -p imapreduce incremental
incremental 600 -p imr-algorithms incremental
incremental 900 --release --test incremental
incremental 600 --test properties incremental_
'

suite_names() {
  awk 'NF { print $1 }' <<< "$SUITES" | sort -u
}

run_suite() {
  local name="$1" sub secs args
  while read -r sub secs args; do
    [ "$sub" = "$name" ] || continue
    # stdin is the table: keep cargo and the test binaries off it.
    # shellcheck disable=SC2086  # args is a word list by construction
    timeout "$secs" cargo test -q $args -- --test-threads=1 < /dev/null
  done <<< "$SUITES"
  if declare -F "smoke_$name" > /dev/null; then
    "smoke_$name"
  fi
  echo "$name: suites passed"
}

# The ids of imr-bench's EXPERIMENTS table (crates/bench/src/lib.rs),
# one per line: the one list of the paper's experiments. `all` runs
# them; `drift` holds them and the committed results/ to each other.
experiment_ids() {
  awk '/^pub const EXPERIMENTS/ { f = 1; next } f && /^\];/ { f = 0 } f' crates/bench/src/lib.rs \
    | sed -n 's/^    row("\([a-z0-9_]*\)".*/\1/p'
}

# The binaries' refusals: each bad invocation below exits 2 with a
# message on stderr (written under $1). Every one is refused while the
# arguments are parsed, before any thread or process starts.
cli_refusals() {
  local cmd status n=0
  while read -r cmd; do
    [ -n "$cmd" ] || continue
    n=$((n + 1))
    status=0
    # shellcheck disable=SC2086  # cmd is a word list by construction
    timeout 60 target/release/$cmd > /dev/null 2> "$1/cli.err" < /dev/null || status=$?
    [ "$status" -eq 2 ] && [ -s "$1/cli.err" ] \
      || { echo "cli: '$cmd' exited $status (want 2 with a message): $(cat "$1/cli.err")" >&2; exit 1; }
  done <<< '
all --iters 0
all --scale -1
trace_timeline --only fig4
imr-jobs frobnicate
imr-worker 127.0.0.1:1 0 0
imr-stat --bogus
'
  echo "cli: $n bad invocations exit 2 with a message"
}

# Smoke-run every experiment at tiny scale into a scratch directory,
# check it emits exactly the committed results/ set and that every
# artifact carries the keys the plotting/readme tooling relies on, then
# regenerate results/ at default scale and require it byte-identical to
# the committed files.
cmd_bench() {
  [ "$#" -eq 0 ] || { echo "bench: takes no flags (got $1)" >&2; exit 2; }
  cargo build --release --workspace
  local out
  out=$(mktemp -d)
  # The RETURN trap would fire again for the caller's return (where the
  # local is gone), so it removes itself after cleaning up.
  trap 'rm -rf "${out:-}"; trap - RETURN' RETURN
  cli_refusals "$out"
  echo "bench-smoke: all --scale 0.002 --iters 2"
  timeout 600 target/release/all --scale 0.002 --iters 2 --out "$out/smoke" > /dev/null
  diff <(ls results) <(ls "$out/smoke/results") >&2 \
    || { echo "bench-smoke: committed results/ (left) and the artifacts all emits (right) differ" >&2; exit 1; }
  local n=0
  for json in "$out"/smoke/results/*.json; do
    n=$((n + 1))
    # A bin that emits malformed JSON must fail the run here, loudly.
    jq empty "$json" 2> /dev/null \
      || { echo "bench-smoke: $json is not valid JSON" >&2; exit 1; }
    for key in '"id"' '"title"' '"x_label"' '"y_label"' '"series"' '"notes"'; do
      grep -q "$key" "$json" \
        || { echo "bench-smoke: $json is missing $key" >&2; exit 1; }
    done
  done
  echo "bench-smoke: $n artifacts, all keys present"
  # The committed results/ are what `all` emits at default scale, byte
  # for byte: EXPERIMENTS.md's tables are read off them.
  timeout 600 target/release/all --out "$out/repro" > /dev/null
  diff -r results "$out/repro/results" \
    || { echo "bench-repro: results/ differs from what --bin all emits" >&2; exit 1; }
  echo "bench-repro: results/ reproduced byte for byte"
  # The benchmark the perf gate runs (BENCHMARK.json), at smoke size: a
  # change that breaks the surface benchmark/src/adapter.rs pins, a
  # workload's self-check or a cross-engine state digest fails here
  # instead of at the gate. The last stdout line is the suite's result.
  local result
  result=$(timeout 900 bash benchmark/run.sh --quick 2> "$out/benchmark.log" | tail -n 1) \
    || { echo "bench-smoke: benchmark/run.sh --quick failed" >&2; tail -n 20 "$out/benchmark.log" >&2; exit 1; }
  jq -e '.correct == true and .digests_equal == true' <<< "$result" > /dev/null \
    || { echo "bench-smoke: benchmark/run.sh --quick: not correct / digests differ: $result" >&2; exit 1; }
  echo "bench-smoke: benchmark/run.sh --quick correct, digests equal"
}

smoke_observe() {
  timeline_smoke
  exposition_smoke
}

# A smoke-run of the trace_timeline binary, whose artifacts must carry
# the keys the timeline tooling relies on.
timeline_smoke() {
  cargo build --release -p imr-bench --bin trace_timeline
  local out
  out=$(mktemp -d)
  trap 'rm -rf "${out:-}"; trap - RETURN' RETURN
  timeout 600 target/release/trace_timeline --scale 0.005 --iters 4 --out "$out" > /dev/null
  grep -q '"traceEvents"' "$out/results/trace_timeline.chrome.json" \
    || { echo "trace-smoke: chrome trace missing traceEvents" >&2; exit 1; }
  grep -q '"async_overlap"' "$out/results/trace_timeline.jsonl" \
    || { echo "trace-smoke: jsonl summary missing async_overlap" >&2; exit 1; }
  grep -q '"mode":"sync"' "$out/results/trace_timeline.jsonl" \
    || { echo "trace-smoke: jsonl summary missing sync mode line" >&2; exit 1; }
  grep -q '"series"' "$out/results/trace_timeline.json" \
    || { echo "trace-smoke: figure artifact missing series" >&2; exit 1; }
  echo "trace-smoke: artifacts present, keys intact"
}

# The CLI drivers, whose exit codes assert resume fidelity and DLQ
# capture.
smoke_service() {
  cargo build --release --bin imr-jobs --bin imr-worker
  timeout 600 target/release/imr-jobs resume > /dev/null
  timeout 600 target/release/imr-jobs dlq > /dev/null
  timeout 600 target/release/imr-jobs submit > /dev/null
}

# A live exposition smoke: a job-service session (the invocation README
# "Watching live jobs" documents; the batch is sized by scale alone to
# stay live for a few seconds) runs with the embedded HTTP endpoint
# enabled while curl scrapes /metrics (the Prometheus text must parse
# and carry the expected families) and imr-stat renders one snapshot
# from the same endpoint.
exposition_smoke() {
  cargo build --release --bin imr-jobs --bin imr-worker --bin imr-stat
  local out addr bg ok i fam
  out=$(mktemp -d)
  trap 'rm -rf "${out:-}"; trap - RETURN' RETURN
  addr="127.0.0.1:9642"
  IMR_TELEMETRY_ADDR="$addr" timeout 600 target/release/imr-jobs submit \
    halve:threads:1500000 pagerank:threads:150000 sssp:sim:150000 halve:tcp:24 \
    halve:threads:1500000 pagerank:sim:150000 > "$out/jobs.log" 2>&1 &
  bg=$!
  ok=""
  for i in $(seq 1 600); do
    if curl -sf --max-time 2 "http://$addr/metrics" > "$out/metrics.txt" 2> /dev/null \
      && target/release/imr-stat --addr "$addr" --once > "$out/stat.txt" 2> /dev/null; then
      ok=1
      break
    fi
    kill -0 "$bg" 2> /dev/null || break
    sleep 0.05
  done
  wait "$bg" \
    || { echo "telemetry: imr-jobs submit failed" >&2; cat "$out/jobs.log" >&2; exit 1; }
  [ -n "$ok" ] \
    || { echo "telemetry: no scrape landed while the batch was live" >&2; exit 1; }
  for fam in imr_samples_total imr_iteration imr_iteration_rate imr_queue_len \
    imr_inflight_slots imr_phase_latency_nanos_bucket imr_phase_p50_nanos \
    imr_phase_p99_nanos; do
    grep -q "^$fam" "$out/metrics.txt" \
      || { echo "telemetry: scrape is missing the $fam family" >&2; exit 1; }
  done
  # Every sample line must parse as Prometheus text format:
  # name{labels} value, with numeric values.
  if grep -Ev '^(#|$)' "$out/metrics.txt" \
    | grep -Evq '^[a-z_][a-z0-9_]*(\{[^}]*\})? -?[0-9][0-9eE.+-]*$'; then
    echo "telemetry: exposition lines failed Prometheus text-format parse:" >&2
    grep -Ev '^(#|$)' "$out/metrics.txt" \
      | grep -Ev '^[a-z_][a-z0-9_]*(\{[^}]*\})? -?[0-9][0-9eE.+-]*$' >&2
    exit 1
  fi
  grep -q 'jobs @' "$out/stat.txt" \
    || { echo "telemetry: imr-stat rendered no job table" >&2; cat "$out/stat.txt" >&2; exit 1; }
}

# The anti-drift guard: every subcommand of this script — the cmd_*
# functions (except the `all` aggregate) and the SUITES table's row
# groups — must be invoked by .github/workflows/ci.yml, and every
# `./verify.sh <sub>` CI invocation must name a real subcommand.
# Likewise the wire protocol and its documentation: the variants of
# `enum ToCoord` / `enum ToWorker` in crates/net/src/proto.rs and the
# rows of DESIGN.md §8's two message tables must be the same lists in
# the same order, so a frame tag cannot land (or retire) undocumented.
# And the configuration surface: every `pub fn with_*` builder on
# `IterConfig` must be called somewhere outside the file that declares
# it — a knob nothing sets is one value in use, i.e. a constant.
# And the measurement surface: results/ holds exactly one artifact per
# id of imr-bench's EXPERIMENTS table — virtual-time artifacts;
# wall-clock belongs to benchmark/, and what it read for each perf PR is
# committed as BENCH_<date>.json.
# Cheap on purpose — no cargo involved — so CI runs it on every push.
wire_variants() {
  awk -v open="pub enum $1 {" '$0 == open { f = 1; next } f && /^}/ { f = 0 } f' \
    crates/net/src/proto.rs | grep -o '^    [A-Z][A-Za-z0-9]*' | tr -d ' '
}

wire_table_rows() {
  awk -v head="| \`$1\` |" 'index($0, head) == 1 { f = 1; next } f && !/^\|/ { f = 0 } f' \
    DESIGN.md | grep -o '^| `[A-Za-z]*`' | tr -d '|` '
}

# Rust code with string literals and `//` comments blanked, printed as
# `file:line:code`. `skip_tests=1` drops `#[cfg(test)]` items (tracked
# by brace depth). A code line directly under `//` comment lines that
# contain `unreachable:`, or carrying that comment itself, is printed
# with an `@` before its code: an annotated panic site. A named file
# that does not exist fails the call (awk would only warn and scan the
# rest), so a renamed file cannot drop out of a scan unnoticed; callers
# keep that status by filtering inside `{ …; }` (`grep || true` there
# forgives only an empty match).
rust_code() {
  local file
  for file in "${@:2}"; do
    [ -f "$file" ] || { echo "drift: $file is named for a scan but does not exist" >&2; return 1; }
  done
  awk -v skip_tests="$1" '
    FNR == 1 { skip = 0; ann = 0 }
    {
      code = $0
      gsub(/"([^"\\]|\\.)*"/, "\"\"", code)
      sub(/\/\/.*/, "", code)
    }
    code ~ /^[ \t]*$/ { if ($0 ~ /\/\/ unreachable:/) ann = 1; next }
    skip_tests && code ~ /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
    skip {
      t = code; n = gsub(/\{/, "", t)
      t = code; m = gsub(/\}/, "", t)
      depth += n - m
      if (n > 0) opened = 1
      if ((opened && depth <= 0) || (!opened && code ~ /;/)) skip = 0
      next
    }
    {
      mark = (ann || $0 ~ /\/\/ unreachable:/) ? "@" : ""
      print FILENAME ":" FNR ":" mark code
      ann = 0
    }
  ' "${@:2}"
}

# The lines of `fn <name>` in <file>, from its signature to the brace
# that closes its body (braces in string literals and `//` comments are
# not counted). Prints nothing when the file defines no such fn.
fn_body() {
  awk -v name="$1" '
    !f && $0 ~ ("(^|[^A-Za-z0-9_])fn " name "[(<]") { f = 1; depth = 0; opened = 0 }
    f {
      print
      code = $0
      gsub(/"([^"\\]|\\.)*"/, "\"\"", code)
      sub(/\/\/.*/, "", code)
      t = code; n = gsub(/\{/, "", t)
      t = code; m = gsub(/\}/, "", t)
      depth += n - m
      if (n > 0) opened = 1
      if (opened && depth <= 0) exit
    }
  ' "$2"
}

cmd_drift() {
  local enum code doc
  for enum in ToCoord ToWorker; do
    code=$(wire_variants "$enum")
    doc=$(wire_table_rows "$enum")
    if [ -z "$code" ] || [ "$code" != "$doc" ]; then
      echo "drift: enum $enum (proto.rs) and its DESIGN.md §8 table differ:" >&2
      diff <(echo "$code") <(echo "$doc") >&2 || true
      echo "drift: left column is proto.rs, right column is DESIGN.md" >&2
      exit 1
    fi
    echo "drift: $enum has $(echo "$code" | wc -l) variants, all in DESIGN.md §8"
  done

  # The setup frame: the version DESIGN.md names in §8's heading, §8's
  # invariant row and §12 is WIRE_VERSION, and §8's mode-tag table is
  # PairMode's codec, tag for tag, in the enum's order.
  local version pattern named
  version=$(sed -n 's/^pub const WIRE_VERSION: u32 = \([0-9][0-9]*\);$/\1/p' crates/net/src/frame.rs)
  for pattern in '^### The setup frame \(v[0-9]+\)' '`WIRE_VERSION` \([0-9]+\)' '`WIRE_VERSION` is [0-9]+'; do
    named=$(grep -oE "$pattern" DESIGN.md | grep -oE '[0-9]+' | sort -u)
    if [ -z "$version" ] || [ "$named" != "$version" ]; then
      echo "drift: WIRE_VERSION is ${version:-missing} in crates/net/src/frame.rs;" \
        "DESIGN.md's '$pattern' names ${named:-none}" >&2
      exit 1
    fi
  done
  echo "drift: DESIGN.md names WIRE_VERSION $version in §8's heading and table and in §12"
  code=$(awk '/^enum_codec!\(PairMode,/ { f = 1; next } f && /^}\);/ { f = 0 } f' crates/net/src/proto.rs \
    | sed -n 's/^ *\([0-9][0-9]*\)u8 => \([A-Za-z0-9]*\).*/\1 \2/p')
  doc=$(awk '/^\| mode tag \| `PairMode` \|/ { f = 1; next } f && !/^\|/ { f = 0 } f' DESIGN.md \
    | sed -n 's/^| \([0-9][0-9]*\) | `\([A-Za-z0-9]*\)` |.*/\1 \2/p')
  if [ -z "$code" ] || [ "$code" != "$doc" ] \
    || [ "$(wire_variants PairMode)" != "$(echo "$code" | cut -d' ' -f2)" ]; then
    echo "drift: PairMode (enum and codec tags in proto.rs) and DESIGN.md §8's mode-tag table differ:" >&2
    diff <(echo "$code") <(echo "$doc") >&2 || true
    echo "drift: enum order: $(wire_variants PairMode | paste -sd' ')" >&2
    exit 1
  fi
  echo "drift: PairMode's $(echo "$code" | wc -l) mode tags are DESIGN.md §8's mode-tag table"

  local config=crates/core/src/config.rs knob knobs=0
  for knob in $(grep -o 'pub fn with_[a-z0-9_]*' "$config" | awk '{ print $3 }'); do
    knobs=$((knobs + 1))
    if ! grep -rlw --include='*.rs' "$knob" crates src tests examples benchmark/src \
      | grep -qvx "$config"; then
      echo "drift: IterConfig::$knob has no caller outside $config:" >&2
      echo "drift: a knob nothing sets is a constant — delete the builder and its field" >&2
      exit 1
    fi
  done
  echo "drift: all $knobs IterConfig builders have a caller outside $config"

  local ids
  ids=$(experiment_ids | sort)
  if [ -z "$ids" ] || ! diff <(echo "$ids") <(ls results | sed 's/\.json$//' | sort) >&2; then
    echo "drift: EXPERIMENTS ids in crates/bench/src/lib.rs (left) and results/*.json (right) differ" >&2
    exit 1
  fi
  echo "drift: results/ holds exactly the $(echo "$ids" | wc -l) EXPERIMENTS artifacts"

  # Every counter names its consumer: the `counter_schema!` list
  # (crates/simcluster/src/metrics.rs) and DESIGN.md §9's counter rows
  # are the same set, one row per counter, and each row's consumer can
  # be found — a test fn whose body names the counter, a BENCHMARK.json
  # per-layer row that benchmark/src computes from it, or a committed
  # results/ note that prints `<counter>=`. The /metrics exposition and
  # the Sample columns render every counter by construction, so they
  # consume none.
  local schema rows counter consumer fn path metric artifact found lost=""
  schema=$(awk '/^counter_schema! \{/ { f = 1; next } f && /^\}/ { f = 0 } f' crates/simcluster/src/metrics.rs \
    | sed -n 's/^    \([a-z_][a-z0-9_]*\),$/\1/p')
  rows=$(sed -n 's/^| [^|]* | `\([a-z_][a-z0-9_]*\)` counter | \(.*\) |$/\1\t\2/p' DESIGN.md)
  if [ -z "$schema" ] || ! diff <(sort <<< "$schema") <(cut -f1 <<< "$rows" | sort) >&2; then
    echo "drift: counter_schema! (left) and DESIGN.md §9's counter rows (right) differ: one row per counter" >&2
    exit 1
  fi
  while IFS=$'\t' read -r counter consumer; do
    case "$consumer" in
      '`fn '*'` in `'*'`')
        fn=${consumer#'`fn '}
        fn=${fn%%'`'*}
        path=${consumer##*' in `'}
        path=${path%'`'}
        found=$({ [ -f "$path" ] && fn_body "$fn" "$path"; } || true)
        grep -qw -- "$counter" <<< "$found" && continue
        ;;
      '`benchmark/` row `'*'`')
        metric=${consumer#'`benchmark/` row `'}
        metric=${metric%'`'}
        # A statement naming the metric reads the counter as a field
        # (`c.<counter>`) between the name and its `;`, strings blanked.
        found=$(find benchmark/src -name '*.rs' -exec perl -0777 -ne '
          BEGIN { ($m, $c) = splice @ARGV, 0, 2 }
          while (/"\Q$m\E"([^;]*)/g) {
            (my $rest = $1) =~ s/"(?:[^"\\]|\\.)*"/""/g;
            print "$ARGV\n" if $rest =~ /\.\Q$c\E\b/;
          }
        ' "$metric" "$counter" {} +)
        jq -e --arg m "$metric" 'any(.per_layer[]; .name == $m)' BENCHMARK.json > /dev/null \
          && [ -n "$found" ] && continue
        ;;
      '`results/'*'.json` note')
        artifact=${consumer#'`'}
        artifact=${artifact%'` note'}
        [ -f "$artifact" ] && grep -qE "(^|[^A-Za-z0-9_])$counter=[0-9]" "$artifact" && continue
        ;;
    esac
    lost="$lost"$'\n'"  $counter: $consumer"
  done <<< "$rows"
  [ -z "$lost" ] \
    || { echo "drift: DESIGN.md §9 names a counter consumer that cannot be found (a test fn whose body names the counter, a benchmark/ row computed from it, or a results/ note printing it):$lost" >&2; exit 1; }
  echo "drift: all $(wc -l <<< "$schema") schema counters have one DESIGN.md §9 row, and every row's consumer reads its counter"

  # One budget ledger: the rows of `BUDGETS` in tests/budget.rs and
  # DESIGN.md §6's "Budget ledger" table are the same rows, in the same
  # order, with the same budgets (compared as numbers: `20.0` is `20`).
  local ledger_code ledger_doc
  ledger_code=$(awk '/^const BUDGETS: / { f = 1; next } f && /^\];/ { f = 0 } f' tests/budget.rs \
    | sed -n 's/^    ("\([a-z_][a-z0-9_]*\)", \([0-9][0-9.]*\), .*/\1 \2/p' | awk '{ printf "%s %g\n", $1, $2 }')
  ledger_doc=$(awk '/^\| row \| what it counts \| budget \|$/ { f = 1; next } f && !/^\|/ { f = 0 } f' DESIGN.md \
    | sed -n 's/^| `\([a-z_][a-z0-9_]*\)` | .* | \([0-9][0-9.]*\) |$/\1 \2/p' | awk '{ printf "%s %g\n", $1, $2 }')
  if [ -z "$ledger_code" ] || [ "$ledger_code" != "$ledger_doc" ]; then
    echo "drift: tests/budget.rs's BUDGETS (left) and DESIGN.md §6's budget ledger (right) differ:" >&2
    diff <(echo "$ledger_code") <(echo "$ledger_doc") >&2 || true
    exit 1
  fi
  echo "drift: the $(wc -l <<< "$ledger_code") rows of tests/budget.rs's BUDGETS are DESIGN.md §6's budget ledger"

  # The committed perf trajectory: every BENCH_*.json at the root is a
  # table of rows, each naming a workload and a metric BENCHMARK.json
  # declares — a renamed metric cannot leave an orphaned history behind.
  local bench known unknown benches=0
  known=$(jq -r '.workloads[].name, .end_to_end[].name, .per_layer[].name' BENCHMARK.json)
  for bench in BENCH_*.json; do
    [ -e "$bench" ] || continue
    benches=$((benches + 1))
    jq -e '.rows | type == "array" and length > 0' "$bench" > /dev/null 2>&1 \
      || { echo "drift: $bench is not a JSON table of {workload, metric, …} rows" >&2; exit 1; }
    unknown=$(jq -r '.rows[] | .workload, .metric' "$bench" | sort -u | grep -vxF -e "$known" || true)
    [ -z "$unknown" ] \
      || { echo "drift: $bench names what BENCHMARK.json does not declare: $(paste -sd' ' <<< "$unknown")" >&2; exit 1; }
  done
  echo "drift: $benches committed BENCH_*.json name only declared workloads and metrics"

  # CHANGES.md keeps each PR's claim, rows and left-outs; run logs
  # belong in the PR body. The newest entry — its last `- ` item with
  # any continuation lines — must fit in 6000 bytes.
  local newest
  newest=$(awk '/^- / { entry = "" } { entry = entry $0 "\n" } END { printf "%s", entry }' CHANGES.md | wc -c)
  [ "$newest" -le 6000 ] \
    || { echo "drift: the newest CHANGES.md entry is $newest bytes (limit 6000): keep the claim, the rows and the left-outs" >&2; exit 1; }
  echo "drift: the newest CHANGES.md entry is $newest bytes (limit 6000)"

  # `unsafe` stays confined: the one call into the folded CRC kernel
  # after CPU feature detection (crates/net/src/crc.rs), plus the
  # budget ledger's counting allocator (tests/budget.rs), whose
  # `GlobalAlloc` impl the trait makes `unsafe` by definition — the one
  # `unsafe impl GlobalAlloc` in the repository. Every other library
  # crate root forbids `unsafe_code`; imr-net denies it and allows it once.
  local root unsafe_sites stray_unsafe allows allocators
  for root in crates/*/src/lib.rs src/lib.rs; do
    if [ "$root" = crates/net/src/lib.rs ]; then
      grep -qx '#!\[deny(unsafe_code)\]' "$root" \
        || { echo "drift: $root lacks #![deny(unsafe_code)]" >&2; exit 1; }
    else
      grep -qx '#!\[forbid(unsafe_code)\]' "$root" \
        || { echo "drift: $root lacks #![forbid(unsafe_code)]" >&2; exit 1; }
    fi
  done
  unsafe_sites=$(rust_code 0 $(find crates src tests -name '*.rs' | sort) \
    | { grep -E ':@?.*(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)' || true; })
  stray_unsafe=$(grep -v '^crates/net/src/crc\.rs:' <<< "$unsafe_sites" \
    | grep -Ev '^tests/budget\.rs:[0-9]+:[[:space:]]*unsafe (impl GlobalAlloc for|fn (alloc|alloc_zeroed|dealloc|realloc)\()' \
    || true)
  [ -z "$stray_unsafe" ] \
    || { echo "drift: unsafe outside the CRC kernel's one call site and tests/budget.rs's allocator:" >&2; echo "$stray_unsafe" >&2; exit 1; }
  allocators=$(grep -rnE --include='*.rs' --exclude-dir=target 'unsafe impl GlobalAlloc' crates src tests examples benchmark vendor || true)
  [ "$(grep -c . <<< "$allocators")" -eq 1 ] && grep -q '^tests/budget\.rs:' <<< "$allocators" \
    || { echo "drift: the repository must hold exactly one unsafe impl GlobalAlloc, in tests/budget.rs:" >&2; echo "$allocators" >&2; exit 1; }
  [ "$(grep -c '^crates/net/src/crc\.rs:' <<< "$unsafe_sites")" -eq 1 ] \
    || { echo "drift: crates/net/src/crc.rs must hold exactly one unsafe site:" >&2; grep '^crates/net/src/crc\.rs:' <<< "$unsafe_sites" >&2; exit 1; }
  allows=$(grep -rn --include='*.rs' 'allow(unsafe_code)' crates src tests || true)
  [ "$(wc -l <<< "$allows")" -eq 1 ] && grep -q '^crates/net/src/crc\.rs:' <<< "$allows" \
    || { echo "drift: allow(unsafe_code) must appear once, in crates/net/src/crc.rs:" >&2; echo "$allows" >&2; exit 1; }
  echo "drift: one unsafe site (crates/net/src/crc.rs) and one counting allocator (tests/budget.rs); every other library root forbids unsafe_code"

  # No panic on the TCP path: outside #[cfg(test)], every unwrap or
  # expect (a method call, or an `Option::`/`Result::` path handed to a
  # combinator), assert, unreachable!, panic!, todo! or unimplemented! in
  # imr-net, imr-native, the sim driver (crates/core/src/{engine,aux}.rs),
  # the incremental driver (crates/core/src/incremental.rs), the
  # configuration and its checks (crates/core/src/config.rs), the iteration kernel
  # and delta store (crates/core/src/{accum,kernel}.rs), the static part
  # both loops read in place (crates/core/src/static_part.rs), the pair loop
  # every engine runs and the simulator's turn-taking environment for it
  # (crates/core/src/{pair,sim_env}.rs), the master every engine
  # recovers through (crates/core/src/supervise.rs), the input checks,
  # observer, engine trait and run control both engines share
  # (crates/core/src/{store,observe,iter_engine,ctl}.rs), the DFS facade
  # and the snapshot naming a rollback reads
  # (crates/dfs/src/{lib,snapshot}.rs) and the shuffle kernel
  # (crates/records/src/{shuffle,sorted,codec}.rs) carries
  # `// unreachable: <proof>` on its line or in the comment lines
  # directly above it.
  local panics
  panics=$(rust_code 1 $(find crates/net/src crates/native/src -name '*.rs' | sort) \
      crates/core/src/{accum,aux,config,ctl,engine,incremental,iter_engine,kernel,observe,pair,sim_env,static_part,store,supervise}.rs \
      crates/dfs/src/{lib,snapshot}.rs \
      crates/records/src/{shuffle,sorted,codec}.rs \
    | { grep -E '^[^:]+:[0-9]+:[^@].*(\.unwrap\(\)|\.expect\(|(^|[^A-Za-z0-9_])(Option|Result)::(unwrap|expect)([^A-Za-z0-9_]|$)|(^|[^A-Za-z0-9_])((debug_)?assert(_eq|_ne)?|unreachable|panic|todo|unimplemented)!)' \
      || true; })
  [ -z "$panics" ] \
    || { echo "drift: unannotated panic sites on the data path (add a typed error or // unreachable: <proof>):" >&2; echo "$panics" >&2; exit 1; }
  echo "drift: every panic site outside tests in imr-net, imr-native, the sim drivers, the core and shuffle kernels, the pair loop and its sim environment, the master, core's shared surface and the DFS snapshot path is annotated"

  # One send path on the TCP data path: every frame is written from its
  # parts (`FrameWriter::write_parts`), bulk bytes borrowed, so outside
  # #[cfg(test)] no `ToCoord` / `ToWorker` is copied into a buffer by
  # `.to_bytes()` — neither one named on the line nor a variable the
  # code binds to either type (`msg: &ToCoord`, `let m = ToWorker::…`).
  local tcp_code names copies
  tcp_code=$(rust_code 1 $(find crates/net/src crates/native/src -name '*.rs' | sort))
  names=$(grep -oE '[a-z_][a-z0-9_]* *: *&?(mut )?To(Coord|Worker)([^A-Za-z0-9_]|$)|let (mut )?[a-z_][a-z0-9_]* *= *To(Coord|Worker)::' <<< "$tcp_code" \
    | sed -E 's/^let (mut )?//; s/[ :=].*//' | sort -u | paste -sd'|' || true)
  copies=$(grep -E "To(Coord|Worker)[^;]*\.to_bytes\(\)${names:+|(^|[^A-Za-z0-9_.])($names)\.to_bytes\(\)}" <<< "$tcp_code" || true)
  [ -z "$copies" ] \
    || { echo "drift: a wire message copied by .to_bytes() instead of framed from its parts:" >&2; echo "$copies" >&2; exit 1; }
  echo "drift: every ToCoord/ToWorker frame outside tests is written from its parts"

  # One loop around the kernel: outside #[cfg(test)], the iteration
  # kernel's halves are called from the pair loop and nowhere else, so
  # every engine — threads, TCP and the simulator — runs the same loop.
  local kernel_calls
  kernel_calls=$(rust_code 1 $(find crates/*/src src -name '*.rs' | sort) \
    | { grep -E '(^|[^A-Za-z0-9_])(map_side|reduce_side|delta_out|delta_in)\(' \
      | grep -Ev '(^|[^A-Za-z0-9_])fn (map_side|reduce_side|delta_out|delta_in)\(' \
      | grep -v '^crates/core/src/pair\.rs:' || true; })
  [ -z "$kernel_calls" ] \
    || { echo "drift: the iteration kernel is called outside the pair loop (crates/core/src/pair.rs):" >&2; echo "$kernel_calls" >&2; exit 1; }
  echo "drift: map_side, reduce_side, delta_out and delta_in are called from the pair loop alone"

  # The static part lives once, in place: the pair loop reads the
  # static dir into a `StaticPart` (the bytes it read, decoded one
  # record per map or extract call), never into a decoded `Vec` through
  # `PairCtx::load`.
  local static_loads
  static_loads=$(rust_code 1 crates/core/src/pair.rs \
    | { grep -E 'ctx\.load(::<[^>]*>)?\(&dirs\.static_dir' || true; })
  [ -z "$static_loads" ] \
    || { echo "drift: the pair loop decodes its static part through ctx.load (hold it as a StaticPart):" >&2; echo "$static_loads" >&2; exit 1; }
  echo "drift: the pair loop reads its static part through StaticPart alone"

  # One master: outside #[cfg(test)], the incident record of a rollback
  # (the migration marker, the flight dump) and the recovery and
  # migration counts are written by `supervise` and nowhere else, so
  # every engine — threads, TCP and the simulator — recovers through it.
  local master_calls
  master_calls=$(rust_code 1 $(find crates/*/src src -name '*.rs' | sort) \
    | { grep -E '(^|[^A-Za-z0-9_])(migration_marker|flight_path)\(|recoveries\.add\(|migrations\.add\(' \
      | grep -Ev '(^|[^A-Za-z0-9_])fn (migration_marker|flight_path)\(' \
      | grep -v '^crates/core/src/supervise\.rs:' || true; })
  [ -z "$master_calls" ] \
    || { echo "drift: a rollback is recorded outside the master (crates/core/src/supervise.rs):" >&2; echo "$master_calls" >&2; exit 1; }
  echo "drift: migration_marker, flight_path, recoveries.add and migrations.add are called from supervise alone"

  # One fault path: a scripted kill or hang takes effect in the failing
  # pair's own exit on every engine, and the master moves a failed
  # node's pairs by the one rule (`ClusterSpec::relocate`), so core
  # defines no relocation of its own, the simulator hands its
  # callers' faults to `Turns::run` in every mode (no literal empty
  # fault list), and only the simulator's relaunch fails a DFS node —
  # the ones the master names in `GenInput::failed`.
  local fault_forks
  fault_forks=$({
    rust_code 1 $(find crates/core/src -name '*.rs' | sort) | grep -E '(^|[^A-Za-z0-9_])fn relocate\b'
    rust_code 1 crates/core/src/engine.rs | grep -F '(&[], None)'
    rust_code 1 $(find crates/core/src -name '*.rs' ! -name sim_env.rs | sort) | grep -F 'fail_node('
  } || true)
  [ -z "$fault_forks" ] \
    || { echo "drift: core relocates pairs itself, the simulator drops its faults, or a DFS node is failed outside the sim's relaunch (use ClusterSpec::relocate in supervise; pass the faults; name failed nodes in GenInput::failed):" >&2; echo "$fault_forks" >&2; exit 1; }
  echo "drift: core defines no fn relocate, engine.rs hands Turns::run its callers' faults, and only sim_env.rs fails a DFS node"

  # One engine trait for every fabric: TCP is a NativeRunner with
  # worker processes attached (`with_workers`) behind `IterEngine`, so
  # the incremental fork of the TCP entry stays gone, `.run_remote(` —
  # a delegate kept only for the benchmark's pinned surface — is called
  # from benchmark/src/adapter.rs alone, and the simulator's runner has
  # no inherent `run*` beside its trait impl.
  local rust_files fork remote_calls inherent
  rust_files=$(find crates src tests examples benchmark/src -name '*.rs' | sort)
  fork=$(grep -n 'run_remote_incremental' $rust_files README.md DESIGN.md || true)
  [ -z "$fork" ] \
    || { echo "drift: run_remote_incremental is named (IterEngine::run_incremental covers TCP):" >&2; echo "$fork" >&2; exit 1; }
  remote_calls=$(rust_code 0 $rust_files \
    | { grep -E '\.run_remote\(' | grep -v '^benchmark/src/adapter\.rs:' || true; })
  [ -z "$remote_calls" ] \
    || { echo "drift: .run_remote( called outside benchmark/src/adapter.rs (attach workers with NativeRunner::with_workers and call IterEngine):" >&2; echo "$remote_calls" >&2; exit 1; }
  inherent=$(rust_code 1 crates/core/src/*.rs \
    | awk -F: '$3 ~ /^impl IterativeRunner \{/ { f = 1; next } f && $3 ~ /^\}/ { f = 0 } f && $3 ~ /pub fn run/')
  [ -z "$inherent" ] \
    || { echo "drift: impl IterativeRunner defines an inherent run* (the simulator runs through its IterEngine impl):" >&2; echo "$inherent" >&2; exit 1; }
  echo "drift: TCP is reached through IterEngine: no run_remote_incremental, .run_remote( from the adapter alone, no inherent IterativeRunner::run*"

  # One iteration for every job: a job of several phases runs one phase
  # per iteration of the pair loop (`IterativeJob::phases`), so the
  # simulator-only phase-major loop and its names stay gone.
  local phase_fork
  phase_fork=$(grep -nE '(^|[^A-Za-z0-9_])(fetch_segments|PhaseJob|run_two_phase)([^A-Za-z0-9_]|$)' \
    $(find crates/*/src src examples -name '*.rs' | sort) || true)
  [ -z "$phase_fork" ] \
    || { echo "drift: a second phase loop is named (a phased job is an IterativeJob with phases() > 1):" >&2; echo "$phase_fork" >&2; exit 1; }
  echo "drift: no fetch_segments, PhaseJob or run_two_phase: phases run on the one pair loop"

  # Every frame tag is sent: each `ToCoord` / `ToWorker` variant is
  # constructed somewhere outside proto.rs and outside #[cfg(test)].
  # An occurrence is a pattern, not a construction, when what follows
  # it (and its braced or parenthesised fields) is `=>`, a match guard,
  # an or-pattern or a `let` binding's `=`; a variant with no other
  # occurrence is a tag nothing sends, and its decoder a dead end.
  local wire_code variant unsent=""
  wire_code=$(rust_code 1 $(find crates/*/src src -name '*.rs' ! -path crates/net/src/proto.rs | sort) \
    | sed -E 's/^[^:]+:[0-9]+:@?//')
  for enum in ToCoord ToWorker; do
    for variant in $(wire_variants "$enum"); do
      perl -0777 -ne '
        BEGIN { ($e, $v) = splice @ARGV, 0, 2 }
        while (/\b\Q$e\E::\Q$v\E\b\s*(?&b)?\s*(?:\)\s*)*(?<next>=>|if\b|\||=(?![=>])|)
                (?(DEFINE)(?<b>\{(?:[^{}]++|(?&b))*\}|\((?:[^()]++|(?&b))*\)))/gx) {
          exit 0 if $+{next} eq "";
        }
        exit 1;
      ' "$enum" "$variant" <<< "$wire_code" || unsent="$unsent $enum::$variant"
    done
  done
  [ -z "$unsent" ] \
    || { echo "drift: wire variants nothing outside proto.rs and tests constructs (retire the tag):$unsent" >&2; exit 1; }
  echo "drift: every ToCoord and ToWorker variant is constructed outside proto.rs and tests"

  # What nothing consumed stays deleted: the warm-start digest exchange
  # (a warm part is guarded by the PartData frame's CRC like every
  # part), the separate trace frame (events ride in `Beat`), the
  # baseline's speculative execution and the graph text formats. Code
  # only: a comment may name a retired tag. Core's
  # `incremental::PatchStats` (the planner's counters) is another type,
  # so that name is scanned in the wire crates only.
  local tombstones
  tombstones=$({
    rust_code 0 $(find crates/*/src src examples -name '*.rs' | sort) \
      | grep -E '^[^:]+:[0-9]+:.*(patch_verify|send_trace|speculative|parse_text)'
    rust_code 0 $(find crates/net/src crates/native/src -name '*.rs' | sort) \
      | grep -E '^[^:]+:[0-9]+:.*(^|[^A-Za-z0-9_])PatchStats([^A-Za-z0-9_]|$)'
  } || true)
  [ -z "$tombstones" ] \
    || { echo "drift: a deleted surface is named again (patch_verify, PatchStats, send_trace, speculative, parse_text):" >&2; echo "$tombstones" >&2; exit 1; }
  echo "drift: no patch_verify, PatchStats (wire), send_trace, speculative or parse_text"

  # A mode is a type down to the wire: the delta mode is
  # `IterConfig<Delta>`, incremental is that mode with a warm start only
  # `run_incremental` turns on, a pair's slice carries one `PairMode`,
  # and a runner with worker processes attached is the TCP runner, so
  # the flags and the transport kind that once said so stay deleted.
  # Code only, imr-net included.
  local mode_flags
  mode_flags=$(rust_code 0 $(find crates/*/src src examples -name '*.rs' | sort) \
    | grep -E '^[^:]+:[0-9]+:.*((^|[^A-Za-z0-9_])(TransportKind|with_incremental_mode)([^A-Za-z0-9_]|$)|\.(accumulative|incremental)([^A-Za-z0-9_]|$))' \
    || true)
  [ -z "$mode_flags" ] \
    || { echo "drift: a mode or transport flag is named again (a mode is IterConfig's type parameter and PairCfg's PairMode; a runner with workers is the TCP runner):" >&2; echo "$mode_flags" >&2; exit 1; }
  echo "drift: no TransportKind, with_incremental_mode, .accumulative or .incremental"

  # The incremental planner asks a job only what it reads: a patch
  # reports nothing (its effect label fed a counter no one read), an
  # inserted node's static datum is `T::default()`, and the witness
  # test compares states with `==`. Code only.
  local planner_asks
  planner_asks=$(rust_code 0 $(find crates/*/src src examples -name '*.rs' | sort) \
    | grep -E '^[^:]+:[0-9]+:.*(^|[^A-Za-z0-9_])(PatchEffect|worsening_ops|empty_static|state_eq)([^A-Za-z0-9_]|$)' \
    || true)
  [ -z "$planner_asks" ] \
    || { echo "drift: a deleted Incremental surface is named again (Incremental is initial_state, patch_static, targets and invert over S: PartialEq, T: Default):" >&2; echo "$planner_asks" >&2; exit 1; }
  echo "drift: no PatchEffect, worsening_ops, empty_static or state_eq"

  # A delta round applies a share of its pending keys, not a count:
  # the count's builder and field stay deleted. Code only, tests and
  # examples included.
  local key_count
  key_count=$(rust_code 0 $(find crates/*/src crates/*/tests src tests examples -name '*.rs' | sort) \
    | grep -E '^[^:]+:[0-9]+:.*(^|[^A-Za-z0-9_])(with_)?delta_batch([^A-Za-z0-9_]|$)' \
    || true)
  [ -z "$key_count" ] \
    || { echo "drift: the delta mode's key count is named again (a round applies the top 1/share of the pending keys: with_delta_share):" >&2; echo "$key_count" >&2; exit 1; }
  echo "drift: no with_delta_batch or delta_batch"

  local subs jobs
  subs=$({
    grep -o '^cmd_[a-z_]*' verify.sh | sed 's/^cmd_//' | grep -v '^all$'
    suite_names
  } | sort -u)
  jobs=$(grep -o 'run: \./verify\.sh [a-z_]*' .github/workflows/ci.yml | awk '{print $3}' | sort -u)
  if [ "$subs" != "$jobs" ]; then
    echo "drift: verify.sh subcommands and CI invocations differ:" >&2
    diff <(echo "$subs") <(echo "$jobs") >&2 || true
    echo "drift: left column is verify.sh, right column is ci.yml" >&2
    exit 1
  fi
  echo "drift: verify.sh and ci.yml agree on $(echo "$subs" | wc -l) subcommands"
}

cmd_all() {
  cmd_fmt
  cmd_lint
  cmd_build
  cmd_test
  run_suite faults
  cmd_bench
  local suite
  for suite in observe service delta chaos incremental; do
    run_suite "$suite"
  done
  cmd_drift
}

sub="${1:-all}"
if declare -F "cmd_$sub" > /dev/null; then
  "cmd_$sub" "${@:2}"
elif suite_names | grep -qx -- "$sub"; then
  run_suite "$sub"
else
  echo "usage: $0 [fmt|lint|build|test|bench|drift|all|$(suite_names | paste -sd'|')]" >&2
  exit 2
fi
echo "verify: $sub passed"
