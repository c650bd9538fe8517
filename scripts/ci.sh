#!/usr/bin/env bash
# Tiered CI gate, runnable offline with an empty cargo registry cache.
#
#   scripts/ci.sh --quick   fail-fast inner loop: fmt + hermeticity
#                           (path-only dependencies, and every manifest
#                           opts in to the declared workspace lints;
#                           `cargo xtask` has no dependencies, so
#                           this stage compiles no simulator code),
#                           then the tier-1 build, clippy over every
#                           target with warnings denied (which enforces
#                           the source policy declared in Cargo.toml's
#                           [workspace.lints] and clippy.toml), rustdoc
#                           with warnings denied, and the tier-1 tests
#                           (which include the model-validity audit of
#                           the freshly measured Basic bank and of a
#                           quarantined engine's degraded snapshot).
#   scripts/ci.sh           everything in --quick, plus the
#                           simulator-driven experiments (`repro fig1
#                           fig2 fig3 ablations baselines`, which
#                           rewrite eleven CSVs through the rank
#                           launchers), the paper's own tables
#                           (`repro table3 table6 table4 table7 table9
#                           pareto`, which rewrite twelve CSVs: the
#                           campaign costs, the best-configuration
#                           tables, the five correlation figures and
#                           the Pareto fronts), the fixed-seed chaos
#                           smoke (`repro chaos`, which exits non-zero
#                           on any degradation-ladder invariant breach
#                           and writes results/chaos_report.csv), the
#                           closed-loop replay (`repro loop`, which
#                           writes results/loop_regret.csv), the
#                           streamed Basic campaign (`repro stream`,
#                           which writes results/stream_decisions.csv),
#                           a determinism gate that fails if any of
#                           those twenty-six CSVs differs from its
#                           committed copy, a run of every example
#                           under examples/ (each asserts what it
#                           shows: the numeric stencil against a
#                           serial sweep, the numeric HPL's residual),
#                           and a bench smoke run of
#                           the substrates + streaming + optimizer +
#                           loopback + model_speed suites, each of
#                           which exits non-zero when a same-run ratio
#                           breaks the bound written in its source.
#
# Both tiers write machine-readable per-stage results to
# results/ci_timing.json (git-ignored; stage name, seconds, status
# `ok`/`failed`, tier, and the name of the failed stage or null) next
# to the human-readable summary, so CI dashboards can trend stage cost
# and see where a run stopped without scraping the log.
#
# Stages run in cheapest-first order so a formatting slip fails in
# seconds, not after a full build. Per-stage wall times are printed in a
# summary at the end.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "usage: scripts/ci.sh [--quick]" >&2; exit 2 ;;
  esac
done

STAGE_NAMES=()
STAGE_TIMES=()
STAGE_STATUS=()
# The stage being run; a failing command exits the script (set -e) with
# this still set, and the EXIT trap records it as failed.
CURRENT_STAGE=""
CURRENT_T0=0
FAILED_STAGE=""

stage() {
  local name="$1"; shift
  echo
  echo "=== stage: $name ==="
  CURRENT_STAGE="$name"
  CURRENT_T0=$(date +%s)
  "$@"
  record_stage ok
}

record_stage() {
  STAGE_NAMES+=("$CURRENT_STAGE")
  STAGE_TIMES+=($(($(date +%s) - CURRENT_T0)))
  STAGE_STATUS+=("$1")
  if [ "$1" = failed ]; then FAILED_STAGE="$CURRENT_STAGE"; fi
  CURRENT_STAGE=""
}

summary() {
  if [ -n "$CURRENT_STAGE" ]; then record_stage failed; fi
  echo
  echo "=== stage timing ==="
  local i
  for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-22s %4ss  %s\n' "${STAGE_NAMES[$i]}" "${STAGE_TIMES[$i]}" "${STAGE_STATUS[$i]}"
  done
  # The same results, machine-readable, for CI dashboards. Written on
  # every exit path so a failed run still records what it paid for and
  # which stage failed.
  local tier="full"
  [ "$QUICK" = 1 ] && tier="quick"
  local failed="null"
  if [ -n "$FAILED_STAGE" ]; then failed="\"$FAILED_STAGE\""; fi
  mkdir -p results
  {
    printf '{\n  "tier": "%s",\n  "failed_stage": %s,\n  "stages": [\n' "$tier" "$failed"
    for i in "${!STAGE_NAMES[@]}"; do
      printf '    {"stage": "%s", "wall_s": %s, "status": "%s"}' \
        "${STAGE_NAMES[$i]}" "${STAGE_TIMES[$i]}" "${STAGE_STATUS[$i]}"
      if [ "$i" -lt $((${#STAGE_NAMES[@]} - 1)) ]; then printf ','; fi
      printf '\n'
    done
    printf '  ]\n}\n'
  } > results/ci_timing.json
  echo "stage timing -> results/ci_timing.json"
}
trap summary EXIT

bench_smoke() {
  # Time the suites fast enough for every CI run (substrate
  # microbenches, streaming-ingestion throughput, the pruned
  # optimizer, the closed-loop round trip, and the paper's
  # model-construction and incremental-refit speeds). Absolute times
  # are printed, never compared across runs or hosts: each speed claim
  # is a pair timed in alternating samples of the same run, and a
  # suite fails when the median ratio of a pair breaks the bound
  # written next to it in crates/bench/benches/.
  local suite
  for suite in substrates streaming optimizer loopback model_speed; do
    cargo bench -q -p etm-bench --bench "$suite"
  done
}

run_examples() {
  # clippy --all-targets only compiles the examples; running them is
  # what checks their assertions.
  local ex
  for ex in examples/*.rs; do
    ex=$(basename "$ex" .rs)
    echo "--- example: $ex"
    cargo run -q --release --example "$ex" > /dev/null
  done
}

# --- quick tier: cheap static checks first, then tier-1 -------------
stage "fmt"        cargo fmt --all --check
stage "hermetic"   cargo xtask check
stage "build"      cargo build --release
stage "clippy"     cargo clippy --workspace --all-targets -q -- -D warnings
stage "doc"        env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
stage "test"       cargo test -q --workspace

if [ "$QUICK" = 1 ]; then
  echo
  echo "ci.sh --quick: green"
  exit 0
fi

# --- full tier ------------------------------------------------------
stage "sim"        cargo run -q --release -p etm-repro --bin repro -- \
                     fig1 fig2 fig3 ablations baselines
stage "paper"      cargo run -q --release -p etm-repro --bin repro -- \
                     table3 table6 table4 table7 table9 pareto
stage "chaos"      cargo run -q --release -p etm-repro --bin repro -- chaos
stage "loop"       cargo run -q --release -p etm-repro --bin repro -- loop
stage "stream"     cargo run -q --release -p etm-repro --bin repro -- stream
# Every run above is fixed-seed and deterministic, and together they
# rewrite all twenty-six committed CSVs under results/: any byte of
# drift from the committed artifacts is a behaviour change, not noise.
stage "artifacts"  git diff --exit-code -- 'results/*.csv'
stage "examples"   run_examples
stage "bench"      bench_smoke

echo
echo "ci.sh: green"
