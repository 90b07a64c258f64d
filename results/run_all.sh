#!/bin/bash
# Regenerates every table/figure/census and a benchmark snapshot. Each step's
# stdout/stderr land in results/<step>.txt / results/<step>.err; failures
# don't abort the sweep but are summarised at the end and propagate into the
# exit status, so a cron'd run can't silently half-complete.
cd /root/repo || exit 1

failed=()

# run_step NAME CMD... — capture output, record failures, keep going.
run_step() {
  local name=$1
  shift
  echo "=== $name start $(date +%T) ==="
  if ! "$@" > "results/$name.txt" 2> "results/$name.err"; then
    failed+=("$name")
  fi
  echo "=== $name done $(date +%T) ==="
}

for bin in table1 table2 fig5 fig6 fig7 table3 overheads single_node ablations reordering convergence trace kernels serve; do
  run_step "$bin" cargo run --release -q -p hipa-bench --bin "$bin"
done

# Scheduler microbenches + a pool_stats counter snapshot (scope dispatch
# cost, per-item claim overhead) from the rayon shim's persistent pool.
run_step pool cargo bench -q -p hipa-bench --bench pool

# Native prefetch A/B + reorder-prepare cost (the simulated A/B in
# results/kernels.txt is the authoritative measurement; see DESIGN.md 12).
run_step kernels_bench cargo bench -q -p hipa-bench --bench kernels

# Residency A/B (one-shot layout rebuild vs resident workspace) + the
# per-query amortization curve of batched multi-vector PPR.
run_step serve_bench cargo bench -q -p hipa-bench --bench serve

# Benchmark snapshot (hipa-bench/v1) + drift check against the committed
# baseline: deterministic metrics must match exactly (DESIGN.md 14).
run_step bench_snapshot cargo run --release -q -p hipa-bench --bin bench-snapshot -- \
  --fast --label local --out results/BENCH_local.json
run_step bench_diff cargo run --release -q -p hipa-perf -- \
  diff results/bench_baseline.json results/BENCH_local.json --deterministic-only

run_step audit cargo run --release -q -p hipa-audit -- --summary-only

# Race-checker timing, appended to audit.txt: the engine-corpus tests
# (tests/check_hb.rs) under the happens-before detector. The binary is
# prebuilt so wall time is run time (DESIGN.md 15).
{
  echo
  echo "=== check-hb timing (engine corpora, release) ==="
  cargo test -q --release --features check-hb --test check_hb --no-run > /dev/null 2>&1
  t0=$(date +%s%N)
  if cargo test -q --release --features check-hb --test check_hb corpus \
      > /dev/null 2>&1; then
    status=ok
  else
    status=FAILED
  fi
  t1=$(date +%s%N)
  echo "check-hb: $(((t1 - t0) / 1000000)) ms ($status)"
} >> results/audit.txt 2>> results/audit.err

# Error summary: any step that exited nonzero or left a non-empty .err.
echo "=== summary ==="
noisy=0
for err in results/*.err; do
  if [ -s "$err" ]; then
    noisy=$((noisy + 1))
    echo "--- $err ($(wc -l < "$err") lines) ---"
    head -5 "$err"
  fi
done
[ "$noisy" -eq 0 ] && echo "no stderr output from any step"
if [ ${#failed[@]} -gt 0 ]; then
  echo "FAILED steps: ${failed[*]}"
  exit 1
fi
echo ALL_EXPERIMENTS_DONE
