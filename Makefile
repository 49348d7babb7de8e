# Tier-1 verification gate.
#
# `make check` is what CI (and the next contributor) should run: it
# builds everything including the examples, runs the full test suite,
# runs every bench smoke mode, lints formatting, and does one full bench
# iteration so that a broken build or a broken evaluation shape is caught
# mechanically.  Each smoke mode checks its own gates in-process and
# prints them as `gate <name> got <value> need <bound> ok|FAIL`; a failed
# gate fails the run.  Wall-time regressions are judged by the repo
# benchmark (`perf/main.exe --compare`), not here.

.PHONY: all test bench bench-smoke chaos-smoke perf-smoke session-smoke campaign-smoke crash-smoke obs-smoke fmt-check ci check clean

all:
	dune build @all

test: all
	dune runtest

bench:
	dune exec bench/main.exe

# Degradation table only: the Table 2 workload over a faulty serial
# link at a clean and a lossy rate. Asserts every plot completes, prints
# the breaker/retry/budget counters, and gates on the cache counters
# being registered.
bench-smoke: all
	dune exec bench/main.exe -- --fault-rate 0.0,0.05 --profile kgdb_rpi400 --deadline-ms 500 --seed 7

# Chaos smoke: the Table 2 figures extracted while seeded mutators race
# the walk (clean, 5%, 20%). The bench asserts zero uncaught exceptions
# and cached-vs-cold render identity at every rate, and gates on at
# least one torn section at every nonzero rate and a nonzero
# sanity.checked counter, so neither the harness nor the sanitizer can
# go silently vacuous.
chaos-smoke: all
	dune exec bench/main.exe -- --chaos-rate 0.0,0.05,0.2 --seed 803845
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
# healthy sessions' p95 within 25% (+0.5 ms) and within 30% of an
# identically-seeded all-healthy twin fleet, their renders
# byte-identical to cache-off solo extractions, every refusal a typed
# Rejected (capacity included), the cold-plot read cache actually
# shared across sessions, no per-session counter negative, and a killed
# fleet replayed from its journal snapshot with pane/box ids
# reproduced.  The SLO gates: the sick session burns its clean_reads
# budget at >= 1x, every healthy one at < 1x, and every session's
# op-latency histogram carries traced exemplars.
session-smoke: all
	dune exec bench/main.exe -- --sessions 4 --fault-rate 0.2 --seed 7
	@echo "session-smoke: ok"

# Campaign smoke (ISSUE 7/9): the committed chaos campaigns, with
# their expect-gates checked in-process — crash_storm (a bit-flipped
# WAL record and two full crash-recoveries from the durable journal,
# one mid-outage), flap_recover (hard outages on a replica-less
# target: quarantine, [STALE] service, bounded TTR) then gray_ramp (a
# gray-failure ramp hedged to a healthy replica before the breaker
# opens, byte-identity asserted).  Every campaign also gates its live
# p95 within 30% of its all-healthy twin, its SLO burn gauge and a
# traced exemplar.
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
# every session rather than raising.  The gates make non-vacuity
# mechanical: at least two crash points, a salvage, timed recoveries
# and replayed records.
crash-smoke: all
	dune exec bench/main.exe -- --crash campaigns/crash_storm.campaign --seed 7
	@echo "crash-smoke: ok"

# Observability overhead guard: bench smoke with tracing off vs. on,
# twice each; fails if the enabled-mode geomean slowdown exceeds 2x.
obs-smoke: all
	sh scripts/obs_smoke.sh

# No ocamlformat in the build image, so the formatting gate is a
# whitespace lint: no tabs or trailing blanks in source files.
fmt-check:
	@if grep -rnP '[ \t]+$$|\t' --include='*.ml' --include='*.mli' lib bin bench test perf examples; then \
		echo "fmt-check: tabs or trailing whitespace found (see above)"; exit 1; \
	else echo "fmt-check: clean"; fi

ci: all test bench-smoke session-smoke campaign-smoke crash-smoke chaos-smoke perf-smoke obs-smoke fmt-check

check: ci bench

clean:
	dune clean
