#!/usr/bin/env bash
# ThreadSanitizer smoke test for the concurrent query paths.
#
# Configures the tsan preset (build-tsan/, LOOM_SANITIZE=thread), builds only
# the two concurrency-sensitive test binaries, and runs them with
# halt_on_error so any data race fails fast. This covers:
#
#   loom_concurrency_test     queries (serial and morsel-parallel) racing
#                             live ingest, block recycling, and retention
#   loom_parallel_query_test  the pool-backed executor: RunOrdered emission,
#                             worker trace absorption, per-morsel floor checks
#   loom_ingest_pipeline_test the write path: the sealing thread's SealEvent
#                             queue, drains, sticky errors, and concurrent
#                             multi-source ingest + queries
#   tiering_test              the background demoter advancing the retention
#                             barrier and catalog under live cross-tier queries
#   standing_query_test       seal-path evaluation publishing window/alert
#                             events to subscriptions polled from other threads
#   net_test                  the TCP front door: REG/SUB streaming and
#                             concurrent /metrics scrapes against live ingest
#
# Wired as a ctest (tsan_smoke) in the default build so `ctest` exercises it;
# run manually from anywhere:
#   tools/run_tsan_smoke.sh

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-tsan"

cmake --preset tsan -S "$repo" >/dev/null
cmake --build "$build" --target loom_concurrency_test loom_parallel_query_test \
  loom_ingest_pipeline_test tiering_test standing_query_test \
  net_test -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"
"$build/tests/loom_concurrency_test"
"$build/tests/loom_parallel_query_test"
"$build/tests/loom_ingest_pipeline_test"
"$build/tests/tiering_test"
"$build/tests/standing_query_test"
"$build/tests/net_test"
echo "tsan smoke: OK"
