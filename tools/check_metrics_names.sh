#!/usr/bin/env bash
# Lints every metric name registered in src/ against the naming convention
# documented in src/common/metrics.h:
#
#   loom_<subsystem>_<name>[_seconds|_bytes|_total]
#
# Enforced rules:
#   * every full name matches ^loom_[a-z0-9]+(_[a-z0-9]+)+$ (lower-snake,
#     loom_ prefix, at least a subsystem and a name part);
#   * counters end in _total or _bytes (monotonic counts / byte counts);
#   * gauges do not end in _total (a cumulative count is a counter), except
#     the names in gauge_total_allowed below;
#   * histograms end in _seconds (latencies) or _records (size
#     distributions);
#   * hybrid-log style name fragments ("_flush_seconds" appended to a
#     metrics_prefix variable) follow the same suffix rules, and every
#     metrics_prefix literal is itself loom_<subsystem>[_<name>...].
#
# Wired as a ctest (check_metrics_names); run manually from anywhere:
#   tools/check_metrics_names.sh

set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
src="$root/src"
fail=0
total=0

# Prints the quoted first argument of Add<Kind>( call sites. Call sites keep
# the name literal (or prefix + "_fragment" expression) on the call line.
extract() { # $1 = Counter|Gauge|Histogram
  grep -rhoE "Add$1\(\"[^\"]+\"" "$src" --include='*.cc' --include='*.h' |
    sed -E 's/.*"([^"]+)"$/\1/'
}

extract_fragments() { # $1 = Counter|Gauge|Histogram
  grep -rhoE "Add$1\([A-Za-z_][A-Za-z0-9_.>-]* \+ \"[^\"]+\"" "$src" \
    --include='*.cc' --include='*.h' |
    sed -E 's/.*"([^"]+)"$/\1/'
}

check() { # $1 = name, $2 = regex, $3 = message
  total=$((total + 1))
  if ! [[ "$1" =~ $2 ]]; then
    echo "BAD  $1  ($3)" >&2
    fail=1
  fi
}

base='^loom_[a-z0-9]+(_[a-z0-9]+)+$'
counter_suffix='(_total|_bytes)$'
histogram_suffix='(_seconds|_records)$'
fragment_base='^(_[a-z0-9]+)+$'

while read -r name; do
  [ -z "$name" ] && continue
  check "$name" "$base" "counter must be loom_<subsystem>_<name>..."
  check "$name" "$counter_suffix" "counter must end in _total or _bytes"
done < <(extract Counter | sort -u)

# Gauges that still end in _total. loom_ingest_finalize_stall_seconds_total is
# read as a gauge by the repository benchmark (perfbench/stream.h); it keeps
# its name until a benchmark change renames it.
gauge_total_allowed="loom_ingest_finalize_stall_seconds_total"

while read -r name; do
  [ -z "$name" ] && continue
  check "$name" "$base" "gauge must be loom_<subsystem>_<name>..."
  if [[ "$name" =~ _total$ ]] && ! printf '%s\n' $gauge_total_allowed | grep -qx "$name"; then
    total=$((total + 1))
    echo "BAD  $name  (gauge must not end in _total; register a counter fed by deltas)" >&2
    fail=1
  fi
done < <(extract Gauge | sort -u)

while read -r name; do
  [ -z "$name" ] && continue
  check "$name" "$base" "histogram must be loom_<subsystem>_<name>..."
  check "$name" "$histogram_suffix" "histogram must end in _seconds or _records"
done < <(extract Histogram | sort -u)

# Fragments appended to a prefix variable (the hybrid log's per-instance
# metric families).
while read -r frag; do
  [ -z "$frag" ] && continue
  check "$frag" "$fragment_base" "fragment must be _<name>..."
  check "$frag" "$counter_suffix" "counter fragment must end in _total or _bytes"
done < <(extract_fragments Counter | sort -u)

while read -r frag; do
  [ -z "$frag" ] && continue
  check "$frag" "$fragment_base" "fragment must be _<name>..."
  check "$frag" "$histogram_suffix" "histogram fragment must end in _seconds or _records"
done < <(extract_fragments Histogram | sort -u)

# The prefixes those fragments attach to.
while read -r prefix; do
  [ -z "$prefix" ] && continue
  check "$prefix" "$base" "metrics_prefix must be loom_<subsystem>_<name>..."
done < <(grep -rhoE 'metrics_prefix = "[^"]+"' "$src" --include='*.cc' --include='*.h' |
  sed -E 's/.*"([^"]+)"$/\1/' | sort -u)

# The ingest-pipeline metric family is part of the engine's public
# observability surface (DESIGN.md): every name below must stay registered
# somewhere in src/ or dashboards built on them silently go dark.
required_ingest="
loom_ingest_chunks_sealed_total
loom_ingest_finalize_seconds
loom_ingest_finalize_stall_seconds_total
loom_ingest_flush_queue_depth
loom_ingest_finalize_queue_depth
loom_ingest_finalize_lag_chunks
loom_ingest_io_backend_mode
loom_ingest_seal_shards
loom_ingest_group_commits_total
loom_ingest_group_commit_bytes
loom_ingest_io_write_fixed_mode
"
all_names="$( (extract Counter; extract Gauge; extract Histogram) | sort -u)"
for name in $required_ingest; do
  total=$((total + 1))
  if ! printf '%s\n' "$all_names" | grep -qx "$name"; then
    echo "BAD  $name  (required loom_ingest_* metric is no longer registered)" >&2
    fail=1
  fi
done

# The tiered-storage family: demotion progress, the retention barrier, and
# cross-tier query accounting (DESIGN.md "Tiered storage").
required_tier="
loom_tier_demoted_chunks_total
loom_tier_demoted_records_total
loom_tier_demoted_bytes
loom_tier_demote_failures_total
loom_tier_demote_seconds
loom_tier_quarantined_total
loom_tier_blocks_considered_total
loom_tier_blocks_pruned_total
loom_tier_blocks_scanned_total
loom_tier_read_bytes
loom_tier_archives
loom_tier_archived_chunks
loom_tier_archived_bytes
loom_tier_retention_barrier_bytes
"
for name in $required_tier; do
  total=$((total + 1))
  if ! printf '%s\n' "$all_names" | grep -qx "$name"; then
    echo "BAD  $name  (required loom_tier_* metric is no longer registered)" >&2
    fail=1
  fi
done

# The standing-query family: evaluation cost, window/alert lifecycle, and
# subscription backpressure (DESIGN.md "Standing queries"), plus the sink
# counters and the daemon front door's subscription counter that ride on it.
required_standing="
loom_standing_evaluations_total
loom_standing_windows_emitted_total
loom_standing_windows_empty_total
loom_standing_late_windows_total
loom_standing_alerts_fired_total
loom_standing_alerts_resolved_total
loom_standing_events_dropped_total
loom_standing_chunk_scans_total
loom_standing_scan_failures_total
loom_standing_eval_seconds
loom_standing_queries
loom_standing_subscribers
loom_standing_subscriber_lag_events
loom_net_standing_subscriptions_total
loom_sink_windows_emitted_total
loom_sink_windows_skipped_total
loom_sink_late_events_total
"
for name in $required_standing; do
  total=$((total + 1))
  if ! printf '%s\n' "$all_names" | grep -qx "$name"; then
    echo "BAD  $name  (required standing-query metric is no longer registered)" >&2
    fail=1
  fi
done

# The decoded-summary cache family (DESIGN.md "Decoded summary cache") and
# the prefetch ring's counts: counts are counters, residency levels are
# gauges.
required_cache="
loom_cache_hits_total
loom_cache_misses_total
loom_cache_evictions_total
loom_cache_invalidated_total
loom_cache_bypassed_total
loom_query_prefetch_issued_total
loom_query_prefetch_hits_total
loom_query_prefetch_wasted_total
"
required_cache_gauges="
loom_cache_used_bytes
loom_cache_entries
"
counter_names="$(extract Counter | sort -u)"
gauge_names="$(extract Gauge | sort -u)"
for name in $required_cache; do
  total=$((total + 1))
  if ! printf '%s\n' "$counter_names" | grep -qx "$name"; then
    echo "BAD  $name  (required counter is no longer registered as a counter)" >&2
    fail=1
  fi
done
for name in $required_cache_gauges; do
  total=$((total + 1))
  if ! printf '%s\n' "$gauge_names" | grep -qx "$name"; then
    echo "BAD  $name  (required loom_cache_* gauge is no longer registered as a gauge)" >&2
    fail=1
  fi
done

if [ "$total" -lt 30 ]; then
  echo "BAD  extraction found only $total checked names; the grep patterns no longer match" \
    "the registration call sites" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "metric name lint FAILED" >&2
  exit 1
fi
echo "metric name lint OK ($total checks)"
