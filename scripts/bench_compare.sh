#!/bin/sh
# Performance-regression guard (ISSUE 4, extended by ISSUE 5): compare
# the freshly written BENCH_smoke.json against the committed baseline
# (git show HEAD:BENCH_smoke.json).
#
#   - bench.plot_ms sum        wall-clock for the whole smoke workload
#   - phase.fetch_ms p95       per-plot target-read tail
#   - phase.interp_ms p95      per-plot interpretation tail
#
# Each gate fails when the new value exceeds the baseline by more than
# the relative budget, with an absolute slack floor so sub-100ms timer
# noise cannot trip it on a fast machine (the gates are upper bounds
# only: getting faster always passes).  The read-cache counters from
# the ISSUE 5 fast path must also be present in the fresh artifact, so
# the caching layer cannot be silently compiled out.  Skips (exit 0)
# when there is no committed baseline to compare against.
set -eu

BUDGET_PCT="${BENCH_COMPARE_BUDGET_PCT:-25}"
SLACK_MS="${BENCH_COMPARE_SLACK_MS:-100}"
FILE="${1:-BENCH_smoke.json}"

# histo_field NAME FIELD < json: one numeric field of one histogram
histo_field() {
    grep -o "\"$1\":{[^}]*}" | sed -n "s/.*\"$2\":\([0-9.eE+-]*\).*/\1/p"
}

[ -f "$FILE" ] || { echo "bench-compare: $FILE missing (run make bench-smoke first)"; exit 1; }

baseline=$(git show HEAD:"$FILE" 2>/dev/null || true)

if [ -z "$baseline" ]; then
    echo "bench-compare: no committed baseline for $FILE - skipping"
    exit 0
fi

# the ISSUE 5 cache counters must exist in the fresh artifact
for c in cache.hits cache.misses cache.coalesced_reads cache.box_hits; do
    grep -q "\"$c\":" "$FILE" \
        || { echo "bench-compare: counter $c missing from $FILE (cache layer vacuous)"; exit 1; }
done

fail=0

# gate NAME FIELD LABEL: upper-bound compare of one histogram field
gate() {
    base=$(printf '%s' "$baseline" | histo_field "$1" "$2")
    cur=$(histo_field "$1" "$2" < "$FILE")
    if [ -z "$base" ]; then
        echo "bench-compare: baseline has no $1 - skipping that gate"
        return 0
    fi
    if [ -z "$cur" ]; then
        echo "bench-compare: $FILE has no $1 histogram"
        fail=1
        return 0
    fi
    awk -v base="$base" -v cur="$cur" -v pct="$BUDGET_PCT" -v slack="$SLACK_MS" -v label="$3" 'BEGIN {
        budget = base * (1 + pct / 100);
        if (budget < base + slack) budget = base + slack;
        printf "bench-compare: %-22s %10.2f ms vs baseline %10.2f ms (budget %10.2f ms)\n",
            label, cur, base, budget;
        exit (cur > budget) ? 1 : 0;
    }' || fail=1
}

gate "bench.plot_ms" "sum" "bench.plot_ms sum"
gate "phase.fetch_ms" "p95" "phase.fetch_ms p95"
gate "phase.interp_ms" "p95" "phase.interp_ms p95"

# The ISSUE 6 multi-session artifact: per-session op-latency p95s and
# the cross-session cache hit rate must be present, so neither the
# per-session accounting nor the shared-cache path can go silently
# vacuous.  The isolation ratio itself is asserted inside the bench;
# here we re-check the recorded value as a belt-and-braces bound.
SESS="BENCH_sessions.json"
if [ ! -f "$SESS" ]; then
    echo "bench-compare: $SESS missing (run make session-smoke first)"
    fail=1
else
    nsess=$(grep -o '"session\.[0-9][0-9]*\.op_ms":{[^}]*"p95"' "$SESS" | wc -l)
    if [ "$nsess" -lt 2 ]; then
        echo "bench-compare: $SESS has $nsess per-session op_ms p95 histograms (need >= 2)"
        fail=1
    else
        echo "bench-compare: $SESS per-session p95 present for $nsess sessions"
    fi
    if ! grep -q '"sessions.cross_hit_rate":' "$SESS"; then
        echo "bench-compare: $SESS has no sessions.cross_hit_rate gauge"
        fail=1
    fi
    ratio=$(grep -o '"sessions.p95_ratio":[0-9.eE+-]*' "$SESS" | cut -d: -f2)
    if [ -z "$ratio" ]; then
        echo "bench-compare: $SESS has no sessions.p95_ratio gauge"
        fail=1
    else
        awk -v r="$ratio" 'BEGIN {
            printf "bench-compare: sessions.p95_ratio       %10.2f    (budget       1.30)\n", r;
            exit (r > 1.30) ? 1 : 0;
        }' || fail=1
    fi
    # ISSUE 8: the SLO engine's gauges and the histogram exemplars must
    # be present, so neither can be silently compiled out
    for g in slo.s1.clean_reads.burn_rate slo.s1.clean_reads.budget_remaining; do
        grep -q "\"$g\":" "$SESS" \
            || { echo "bench-compare: $SESS has no $g gauge (SLO engine vacuous)"; fail=1; }
    done
    if grep -q '"exemplars":{' "$SESS" && grep -q '"trace":[1-9]' "$SESS"; then
        echo "bench-compare: $SESS SLO gauges + exemplar trace ids present"
    else
        echo "bench-compare: $SESS has no histogram exemplar trace ids"
        fail=1
    fi
fi

# The ISSUE 7 campaign artifact (gray_ramp, written last by
# campaign-smoke): the health machinery's headline numbers must be
# present and sane — the expect-gates proper are asserted in-process
# by the bench; here we re-check the recorded values as belt-and-braces
# bounds.
CAMP="BENCH_campaign.json"
if [ ! -f "$CAMP" ]; then
    echo "bench-compare: $CAMP missing (run make campaign-smoke first)"
    fail=1
else
    for g in campaign.ttr_ops campaign.unhealthy_ops campaign.availability.recovered; do
        grep -q "\"$g\":" "$CAMP" \
            || { echo "bench-compare: $CAMP has no $g gauge"; fail=1; }
    done
    ratio=$(grep -o '"campaign.p95_ratio":[0-9.eE+-]*' "$CAMP" | cut -d: -f2)
    if [ -z "$ratio" ]; then
        echo "bench-compare: $CAMP has no campaign.p95_ratio gauge"
        fail=1
    else
        awk -v r="$ratio" 'BEGIN {
            printf "bench-compare: campaign.p95_ratio       %10.2f    (budget       1.30)\n", r;
            exit (r > 1.30) ? 1 : 0;
        }' || fail=1
    fi
    hedged=$(grep -o '"campaign.hedged_ops":[0-9.eE+-]*' "$CAMP" | cut -d: -f2)
    if [ -z "$hedged" ]; then
        echo "bench-compare: $CAMP has no campaign.hedged_ops gauge"
        fail=1
    else
        awk -v h="$hedged" 'BEGIN {
            printf "bench-compare: campaign.hedged_ops      %10.0f    (need     >= 1)\n", h;
            exit (h >= 1) ? 0 : 1;
        }' || fail=1
    fi
    # ISSUE 8: SLO gauges and exemplars in the campaign artifact too
    grep -q '"slo\.s1\.op_p95\.burn_rate":' "$CAMP" \
        || { echo "bench-compare: $CAMP has no slo.s1.op_p95.burn_rate gauge"; fail=1; }
    if grep -q '"exemplars":{' "$CAMP" && grep -q '"trace":[1-9]' "$CAMP"; then
        echo "bench-compare: $CAMP SLO gauges + exemplar trace ids present"
    else
        echo "bench-compare: $CAMP has no histogram exemplar trace ids"
        fail=1
    fi
fi

# The ISSUE 9 crash-torture artifact: every identity/salvage assert
# runs in-process; here we require the artifact to prove the torture
# actually covered crash points, salvaged corruption, and timed its
# recoveries — an empty or stale BENCH_crash.json fails the build.
CRASH="BENCH_crash.json"
if [ ! -f "$CRASH" ]; then
    echo "bench-compare: $CRASH missing (run make crash-smoke first)"
    fail=1
else
    points=$(grep -o '"crash.points":[0-9.eE+-]*' "$CRASH" | cut -d: -f2)
    if [ -z "$points" ]; then
        echo "bench-compare: $CRASH has no crash.points gauge"
        fail=1
    else
        awk -v p="$points" 'BEGIN {
            printf "bench-compare: crash.points             %10.0f    (need     >= 1)\n", p;
            exit (p >= 1) ? 0 : 1;
        }' || fail=1
    fi
    for g in crash.identical crash.salvaged; do
        grep -q "\"$g\":" "$CRASH" \
            || { echo "bench-compare: $CRASH has no $g gauge"; fail=1; }
    done
    recov=$(histo_field "crash.recover_ms" "count" < "$CRASH")
    if [ -z "$recov" ] || [ "$recov" = "0" ]; then
        echo "bench-compare: $CRASH has no crash.recover_ms histogram samples"
        fail=1
    else
        echo "bench-compare: $CRASH crash.recover_ms histogram present ($recov recoveries)"
    fi
    grep -q '"recovery.records_replayed":' "$CRASH" \
        || { echo "bench-compare: $CRASH has no recovery.records_replayed counter"; fail=1; }
fi

exit "$fail"
