#!/usr/bin/env bash
# benchsweep.sh — the multi-core wire sweep driver.
#
# Runs rtlebench's serving-layer grid (coalesce x workers x shards x
# GOMAXPROCS) over loopback TCP and writes the result as the next
# BENCH_<n>.json. The default grid is the one the committed BENCH_8.json
# was produced with: a single deeply pipelined connection (so every cell
# exercises the vectored write coalescer and the reader's affinity runs at
# full depth) swept across shard counts, coalesce caps, and scheduler
# widths. BENCH_8.json was recorded on a 2-core host. In its closed-loop
# cells the sharded servers beat the single shard only at 2 procs with
# coalesce=8; the best cell at every proc count is unsharded.
#
# Environment overrides (defaults in parentheses):
#   SWEEP_SHARDS     shard counts                 (1,2,4)
#   SWEEP_WORKERS    workers per shard            (2)
#   SWEEP_COALESCE   coalesce-window caps         (1,8)
#   SWEEP_PROCS      GOMAXPROCS values            (1,2,4)
#   SWEEP_CONNS      load connections             (1)
#   SWEEP_PIPELINE   pipelined slots/conn         (128)
#   SWEEP_OPS        single ops per cell          (60000)
#   SWEEP_RATE       open-loop ops/sec, 0 = none  (40000)
#   SWEEP_OUTDIR     BENCH_<n>.json directory     (.)
set -euo pipefail
cd "$(dirname "$0")/.."

go build -o /tmp/rtlebench ./cmd/rtlebench

exec /tmp/rtlebench -methods '' -json -outdir "${SWEEP_OUTDIR:-.}" \
  -wire \
  -wire-shards "${SWEEP_SHARDS:-1,2,4}" \
  -wire-workers "${SWEEP_WORKERS:-2}" \
  -wire-coalesce "${SWEEP_COALESCE:-1,8}" \
  -wire-gomaxprocs "${SWEEP_PROCS:-1,2,4}" \
  -wire-conns "${SWEEP_CONNS:-1}" \
  -wire-pipeline "${SWEEP_PIPELINE:-128}" \
  -wire-ops "${SWEEP_OPS:-60000}" \
  -wire-rate "${SWEEP_RATE:-40000}"
