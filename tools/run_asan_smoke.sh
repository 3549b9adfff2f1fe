#!/usr/bin/env bash
# AddressSanitizer smoke test for the ingest write path.
#
# Configures the asan preset (build-asan/, LOOM_SANITIZE=address), builds only
# the write-path test binaries, and runs them with halt_on_error so any heap
# error fails fast. This covers:
#
#   loom_ingest_pipeline_test  the sealing thread's SealEvent queue, staged
#                              summary buffers, and the finalize drain paths
#                              (destructor with work still queued included)
#   hybridlog_test             block recycling, the one-block vectored flush,
#                              and close-time sync readback
#   tiering_test               demotion payload staging (spans rebuilt over a
#                              scan window), archive block decode buffers, and
#                              the crash-safe tmp/rename write protocol
#   export_test                the export gather/sort/encode path through the
#                              shared ArchiveWriter
#   standing_query_test        seal-path window accumulators, the shared
#                              chunk-rescan cache, and event queue teardown
#
# Wired as a ctest (asan_smoke) in the default build so `ctest` exercises it;
# run manually from anywhere:
#   tools/run_asan_smoke.sh

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="$repo/build-asan"

cmake --preset asan -S "$repo" >/dev/null
cmake --build "$build" --target loom_ingest_pipeline_test hybridlog_test \
  tiering_test export_test standing_query_test -j "$(nproc)"

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
"$build/tests/loom_ingest_pipeline_test"
"$build/tests/hybridlog_test"
"$build/tests/tiering_test"
"$build/tests/export_test"
"$build/tests/standing_query_test"
echo "asan smoke: OK"
