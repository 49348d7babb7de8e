# Tier-1 verification gate.
#
# `make check` is what CI (and the next contributor) should run: it
# builds everything including the examples, runs the full test suite,
# exercises the fault-injected transport path (bench smoke at two fault
# rates), lints formatting, and does one full bench iteration so that a
# broken build or a broken evaluation shape is caught mechanically.

.PHONY: all test bench bench-smoke chaos-smoke perf-smoke session-smoke campaign-smoke crash-smoke obs-smoke slo-smoke bench-compare fmt-check ci check clean

all:
	dune build @all

test: all
	dune runtest

bench:
	dune exec bench/main.exe

# Degradation table only: the Table 2 workload over a faulty serial
# link at a clean and a lossy rate. Asserts every plot completes and
# prints the breaker/retry/budget counters.
bench-smoke: all
	dune exec bench/main.exe -- --fault-rate 0.0,0.05 --profile kgdb_rpi400 --deadline-ms 500 --seed 7

# Chaos smoke: the Table 2 figures extracted while seeded mutators race
# the walk (clean, 5%, 20%). The bench itself asserts zero uncaught
# exceptions and cached-vs-cold render identity at every rate; the awk
# pass additionally requires at least one torn section at a nonzero
# rate and a nonzero sanity.checked counter in the metrics artifact, so
# neither the harness nor the sanitizer can go silently vacuous.
chaos-smoke: all
	dune exec bench/main.exe -- --chaos-rate 0.0,0.05,0.2 --seed 803845 > chaos_smoke.out \
		|| { cat chaos_smoke.out; rm -f chaos_smoke.out; exit 1; }
	@cat chaos_smoke.out
	@awk '/^0\.050/ { torn = $$5 } END { exit (torn + 0 < 1) ? 1 : 0 }' chaos_smoke.out \
		|| { echo "chaos-smoke: no torn sections at rate 0.05 (harness vacuous)"; \
		     rm -f chaos_smoke.out; exit 1; }
	@grep -o '"sanity.checked":[0-9]*' BENCH_chaos.json | grep -qv ':0$$' \
		|| { echo "chaos-smoke: sanity.checked is 0 (sanitizer vacuous)"; \
		     rm -f chaos_smoke.out; exit 1; }
	@rm -f chaos_smoke.out
	@echo "chaos-smoke: ok"

# Perf smoke (ISSUE 5): the repeat-plot workload over the slow KGDB
# link profile. The bench asserts the cache gates internally: box
# hit-rate >= 50%, wire fetches per warm refresh at least 5x below the
# uncached control, and warm-refresh p50 at least 3x under the cold
# plot p50.
perf-smoke: all
	dune exec bench/main.exe -- --repeat-plot 5 --seed 7
	@echo "perf-smoke: ok"

# Session smoke (ISSUE 6): the multi-session isolation bench.  The
# bench asserts the gates in-process: one session storming at the
# given fault rate (plus one forced breaker-Open round) leaves the
# healthy sessions' p95 within 25% of an identically-seeded all-healthy
# twin fleet, their renders byte-identical to cache-off solo
# extractions, every refusal a typed Rejected (capacity included), the
# cold-plot read cache actually shared across sessions, and a killed
# fleet replayed from its journal snapshot with pane/box ids
# reproduced.  Writes BENCH_sessions.json, which bench-compare then
# gates on.
session-smoke: all
	dune exec bench/main.exe -- --sessions 4 --fault-rate 0.2 --seed 7
	@echo "session-smoke: ok"

# Campaign smoke (ISSUE 7/9): the committed chaos campaigns, with
# their expect-gates asserted in-process — crash_storm (a bit-flipped
# WAL record and two full crash-recoveries from the durable journal,
# one mid-outage), flap_recover (hard outages on a replica-less
# target: quarantine, [STALE] service, bounded TTR) then gray_ramp (a
# gray-failure ramp hedged to a healthy replica before the breaker
# opens, byte-identity asserted).  gray_ramp runs last so
# BENCH_campaign.json holds its numbers, which bench-compare then
# gates on.
campaign-smoke: all
	dune exec bench/main.exe -- --campaign campaigns/crash_storm.campaign --seed 7
	dune exec bench/main.exe -- --campaign campaigns/flap_recover.campaign --seed 7
	dune exec bench/main.exe -- --campaign campaigns/gray_ramp.campaign --seed 7
	@echo "campaign-smoke: ok"

# Crash-point torture (ISSUE 9): record a run of journaled panel ops,
# then crash at EVERY record boundary and recover three ways per point
# (exact prefix, torn final record, bit-flipped earlier record).  The
# bench asserts the gates in-process: every clean prefix recovers
# bit-identically (pane ids, box ids, rendered text), torn tails are
# dropped not tripped over, a flipped bit degrades only the owning
# session (typed salvage), and an unsalvageable snapshot quarantines
# every session rather than raising.  The grep makes non-vacuity
# mechanical: the artifact must show crash points and salvages.
crash-smoke: all
	dune exec bench/main.exe -- --crash campaigns/crash_storm.campaign --seed 7
	@grep -o '"crash.points":[0-9.]*' BENCH_crash.json | grep -qv ':0\.' \
		|| { echo "crash-smoke: no crash points exercised (harness vacuous)"; exit 1; }
	@grep -o '"crash.salvaged":[0-9.]*' BENCH_crash.json | grep -qv ':0\.' \
		|| { echo "crash-smoke: no salvages observed (corruption path vacuous)"; exit 1; }
	@echo "crash-smoke: ok"

# Wall-clock regression guard: fresh BENCH_smoke.json vs. the committed
# baseline (25% relative budget with an absolute slack floor).  Also
# checks the BENCH_sessions.json artifact from session-smoke for
# per-session p95 histograms and the cross-session hit-rate gauge.
bench-compare:
	sh scripts/bench_compare.sh

# Observability overhead guard: bench smoke with tracing off vs. on,
# twice each; fails if the enabled-mode geomean slowdown exceeds 2x
# (tunable via OBS_SMOKE_BUDGET).
obs-smoke: all
	sh scripts/obs_smoke.sh

# SLO burn-rate gate (ISSUE 8): the sessions bench's sick session must
# burn its clean_reads error budget >= 1x while every healthy session
# stays quiet, and histogram exemplars must carry trace ids.  Depends
# on obs-smoke so the <= 2x overhead guard always runs alongside it.
slo-smoke: all obs-smoke
	sh scripts/slo_smoke.sh

# No ocamlformat in the build image, so the formatting gate is a
# whitespace lint: no tabs or trailing blanks in source files.
fmt-check:
	@if grep -rnP '[ \t]+$$|\t' --include='*.ml' --include='*.mli' lib bin bench test; then \
		echo "fmt-check: tabs or trailing whitespace found (see above)"; exit 1; \
	else echo "fmt-check: clean"; fi

ci: all test bench-smoke session-smoke campaign-smoke crash-smoke bench-compare chaos-smoke perf-smoke obs-smoke slo-smoke fmt-check

check: ci bench

clean:
	dune clean
