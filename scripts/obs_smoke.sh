#!/bin/sh
# Observability overhead guard (ISSUE 3): run the bench smoke workload
# with tracing off and on, interleaved (off,on,off,on) so drift in
# machine load hits both sides, and fail if the enabled-mode geomean
# slowdown exceeds the budget.
#
# The budget is deliberately loose (2x): the guard exists to catch an
# accidentally-hot instrumentation path (e.g. an allocation on every
# target read while disabled), not to benchmark precisely.
set -eu

BUDGET=2.0
ARGS="--fault-rate 0.0,0.05 --profile kgdb_rpi400 --deadline-ms 500 --seed 7"
BIN="_build/default/bench/main.exe"

[ -x "$BIN" ] || dune build bench/main.exe

run_ms() {
    # wall-clock one bench run, in ms
    start=$(date +%s%N)
    "$BIN" $ARGS --obs "$1" > /dev/null
    end=$(date +%s%N)
    echo $(( (end - start) / 1000000 ))
}

off1=$(run_ms off); on1=$(run_ms on)
off2=$(run_ms off); on2=$(run_ms on)

echo "obs-smoke: off ${off1}/${off2} ms, on ${on1}/${on2} ms"

awk -v o1="$off1" -v o2="$off2" -v n1="$on1" -v n2="$on2" -v budget="$BUDGET" 'BEGIN {
    # guard against sub-ms timer resolution
    if (o1 < 1) o1 = 1; if (o2 < 1) o2 = 1;
    if (n1 < 1) n1 = 1; if (n2 < 1) n2 = 1;
    geomean = sqrt((n1 / o1) * (n2 / o2));
    printf "obs-smoke: geomean slowdown %.2fx (budget %.1fx)\n", geomean, budget;
    exit (geomean > budget) ? 1 : 0;
}'
