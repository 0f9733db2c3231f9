#!/usr/bin/env sh
# Regenerate every pinned golden from the current build: the CLI's JSON
# reports and the Section 7 bench rows.
#
# Run from the repository root after an intentional schema or corpus
# change; the golden tests (testgen/GoldenJsonTest.cpp,
# testgen/EquivalenceSuiteTest.cpp) diff the CLI's live output against
# the JSON files byte-for-byte, and CI re-runs this script to prove the
# checked-in goldens are fresh.
#
# Usage: tools/regen_goldens.sh [path/to/rustsight [path/to/bench/dir]]
set -eu

RUSTSIGHT="${1:-./build/examples/rustsight}"
BENCH_DIR="${2:-$(dirname "$RUSTSIGHT")/../bench}"
if [ ! -x "$RUSTSIGHT" ]; then
  echo "error: '$RUSTSIGHT' is not executable; build first or pass the path" >&2
  exit 2
fi
for b in sec7_detectors sec7_ablation; do
  if [ ! -x "$BENCH_DIR/bench_$b" ]; then
    echo "error: '$BENCH_DIR/bench_$b' is not executable; build the" \
      "bench_$b target or pass the bench directory" >&2
    exit 2
  fi
done
if [ ! -d tests/golden ]; then
  echo "error: run from the repository root" >&2
  exit 2
fi

# check exits 1 when it reports findings; that is the expected outcome
# for the bug-carrying golden corpora, so tolerate it explicitly.
run_check() {
  out="$1"
  shift
  "$RUSTSIGHT" check --json --jobs 1 --no-cache "$@" > "$out" || test $? -eq 1
}

run_check tests/golden/check.json \
  examples/mir/eval/uaf_post_drop_bug_0.mir examples/mir/eval/clean_0.mir
run_check tests/golden/regress_check.json tests/mir/regress/*.mir
# A dataflow budget that stops most solves mid-way: pins degraded output.
run_check tests/golden/check_budget.json --max-dataflow-iters 4 \
  examples/mir/*.mir tests/mir/regress/*.mir
# Functions whose points-to rows span one to three 64-bit words.
run_check tests/golden/wide_check.json tests/mir/wide
# A budget of three block updates per function over the eval corpus.
run_check tests/golden/eval_budget3.json --max-dataflow-iters 3 \
  examples/mir/eval
"$RUSTSIGHT" eval --json examples/mir/eval > tests/golden/eval.json

# The paper-vs-reproduced rows each Section 7 bench prints before timing;
# --benchmark_filter=none skips the timings, so the rows are all it writes.
for b in sec7_detectors sec7_ablation; do
  "$BENCH_DIR/bench_$b" --benchmark_filter=none > "tests/golden/$b.txt"
done

echo "regenerated: tests/golden/{check,regress_check,check_budget,eval}.json," \
  "tests/golden/{wide_check,eval_budget3}.json," \
  "tests/golden/sec7_{detectors,ablation}.txt"
