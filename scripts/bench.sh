#!/bin/sh
# Perf trajectory capture: runs the standard workloads through every
# detector family in release mode and appends a labelled entry to
# BENCH_wcp.json (same label replaces, so re-runs are reproducible).
#
# Usage: scripts/bench.sh [LABEL] [OUT.json]
#   LABEL     entry label (default: current)
#   OUT.json  trajectory file (default: BENCH_wcp.json)
#
# Each entry also records the wire-stack saturation numbers (frames/sec,
# allocs/frame, frames/write for batched vs per-frame loopback and TCP)
# and the wire-version A/B (bytes/event and delta hit rate for v1 vs the
# delta-compressed v2 at n ∈ {8, 32, 128}); e.g. `scripts/bench.sh
# net-batch` captures the batched-transport entry and `scripts/bench.sh
# wire-v2` the compression entry that docs/performance.md quotes.
#
# Entries also carry the `multi_saturation` section: 10k concurrent
# predicate sessions over one shared 16×40 stream through the session
# layer (the `pump_scaling` curve — serial and the sharded parallel
# pump at 2/4/8 workers, fastest of 2 rounds each, every width pinned
# bit-identical — plus detections/sec, shared-store bytes/predicate vs
# the naive per-session store, and a 64-session socket leg's wire
# bytes/predicate). `scripts/bench.sh multi-pump` labels an entry for
# that section; docs/multi-tenant.md quotes it.
#
# The `parallel_scaling` section measures the work-optimal parallel
# detector against the sequential token walk at n ∈ {8, 32, 128} ×
# threads ∈ {1, 2, 4, 8} (every width asserted bit-identical to the
# 1-thread run before its timing is recorded, work totals alongside).
# `scripts/bench.sh parallel` labels an entry for that section;
# docs/performance.md quotes its crossover table.
#
# Each standard workload's `substrate` object also times the clock
# annotation every offline detector starts from (`Computation::annotate`:
# `annotate_median_ns`, `annotate_min_ns`) beside the snapshot-queue
# build; `scripts/bench.sh annotate-flat` labels the entry for the flat
# clock table that docs/performance.md quotes.
#
# This is informational tooling, NOT part of tier-1 verification
# (scripts/verify.sh); timings are machine-dependent and must never
# gate a build.
set -eu

cd "$(dirname "$0")/.."

label="${1:-current}"
out="${2:-BENCH_wcp.json}"

cargo run -p wcp-bench --bin harness --release --offline -q -- \
    bench "$out" --label "$label"
