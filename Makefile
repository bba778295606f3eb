.PHONY: all build test bench bench-check bench-baselines ci clean

all: build

build:
	dune build

test: build
	dune runtest

bench: build
	dune exec bench/main.exe

# Regression gate over the committed baselines in bench/baselines/.
# Re-measures the fast sections and compares metric by metric:
# deterministic metrics (areas, cells removed, SAT conflict counts)
# must match exactly; wall-time and GC metrics get a noise band,
# widened by --threshold-scale because this also runs on shared CI
# machines.  The diff table lands in /tmp/smartly_bench_diff.txt for
# artifact upload.
#
# Four legs.  The paper tables (table2 and table3, which share one run
# of the ten public profiles) and mux_chain run in the default mode
# (SAT session + value analysis on) and must reproduce every
# deterministic counter exactly, table3's SAT query and effort counts
# included.  The second leg disables the abstract-interpretation rung
# zero and gates against bench/baselines/noanalysis, recorded in that
# mode: areas are byte-identical across the two stores while their
# sat_queries differ, so the committed diff attributes the query
# reduction to the rung.
# The third leg gates the industrial section: on the mux-rich ind_*
# designs the walk's data-bit folding dominates the run, so a change
# there must keep their areas and removed-cell counts exactly.  The
# jobs_per_sec leg gates the warm serve batch.
#
# The last step is a self-test of the gate itself: --pessimize turns
# the smartly flows into no-ops, so the re-measured areas genuinely
# regress and the gate MUST fail — if it passes, the gate is broken
# and the target errors out.
bench-check: build
	dune exec bench/main.exe -- table2 table3 mux_chain --check \
	  --threshold-scale 4 --report /tmp/smartly_bench_diff.txt
	dune exec bench/main.exe -- table2 table3 mux_chain --check \
	  --no-analysis --baseline-dir bench/baselines/noanalysis \
	  --threshold-scale 4 --report /tmp/smartly_bench_diff_noanalysis.txt
	dune exec bench/main.exe -- industrial --check \
	  --threshold-scale 4 --report /tmp/smartly_bench_diff_industrial.txt
	dune exec bench/main.exe -- jobs_per_sec --check \
	  --threshold-scale 4 --report /tmp/smartly_bench_diff_jobs.txt
	@if dune exec bench/main.exe -- mux_chain --check --pessimize \
	    --report /tmp/smartly_bench_pessimized.txt >/dev/null 2>&1; then \
	  echo "bench-check: BROKEN GATE — pessimized run passed"; exit 1; \
	else \
	  echo "bench-check: gate self-test ok (pessimized run failed as it must)"; \
	fi

# Refresh every committed baseline.  Every section runs three times so
# the wall-clock medians are meaningful (deterministic metrics are
# rep-invariant, so the repetitions cost only time).  Commit the
# resulting bench/baselines/*.json together with the change that moved
# the numbers.
bench-baselines: build
	dune exec bench/main.exe -- table2 table3 industrial \
	  --update-baselines --reps 3
	dune exec bench/main.exe -- mux_chain --update-baselines --reps 3
	dune exec bench/main.exe -- jobs_per_sec --update-baselines --reps 3
	dune exec bench/main.exe -- table2 table3 industrial \
	  --update-baselines --no-analysis \
	  --baseline-dir bench/baselines/noanalysis --reps 3
	dune exec bench/main.exe -- mux_chain --update-baselines \
	  --no-analysis --baseline-dir bench/baselines/noanalysis --reps 3

# What CI runs: build, the full test suite, then an end-to-end smoke of
# the observability surface — optimize the fast mux_chain profile with
# a Chrome trace, a JSON stats report, and a provenance log; aggregate
# the log with `explain`; and fail unless every artifact parses
# (validate-json is the CLI's own strict parser, so no external tooling
# is needed).  A second run on riscv — the smallest profile whose
# ladder reaches SAT — dumps its hardest queries and replays each one,
# failing on any verdict mismatch.  The replay loop is guarded because
# a profile resolved entirely by simulation dumps zero queries.
# The lint step covers every checked-in example plus the two smoke
# profiles; `lint` exits nonzero on error-severity findings, so a
# regression that makes an example ill-formed fails the build, and the
# JSON report must survive the strict parser.  The analyze step runs
# the value-analysis fixpoint over the three lint-clean examples and
# validates each smartly-analysis-v1 report — the same backend the
# NL010..NL013 rules and the engine's rung zero use, exercised on real
# sources rather than profiles.  The mux_chain
# optimization is re-run under --check-invariants, which validates,
# lints and equivalence-checks the circuit after every pass.  A serve
# smoke follows: a 4-line JSONL batch (two identical jobs, a riscv job,
# one shutdown) through the stdio daemon, with the per-job
# smartly-report-v1 stream kept as an artifact and parse-validated.
# Finally
# the run-ledger surface: a deliberately budget-starved run (1 ms per
# pass) must still exit 0 with its netlist equivalence-checking — the
# watchdog degrades, never crashes — and `smartly report` must render
# the ledger it left, with the JSON form surviving validate-json.  The
# bench harness must refuse an unknown section name with exit 2 before
# running anything: a misspelt section in a bench-check leg would
# otherwise leave nothing to compare and pass the gate silently.  A
# source that does not load must end in a located error and exit 2,
# never an uncaught exception: `opt` on a Verilog file with a syntax
# error must name its line and column, and `opt` on an unknown profile
# name must exit 2 as well.
ci: build
	dune runtest
	dune exec bench/main.exe -- nosuch --no-ledger 2>/dev/null; \
	  status=$$?; [ "$$status" -eq 2 ] || { \
	  echo "ci: bench accepted an unknown section (exit $$status)"; exit 1; }
	printf 'module bad(input a, output y);\nassign y = a + ;\nendmodule\n' \
	  > /tmp/smartly_bad.v
	dune exec bin/smartly_cli.exe -- opt /tmp/smartly_bad.v --no-ledger \
	  2> /tmp/smartly_bad.err; \
	  status=$$?; [ "$$status" -eq 2 ] \
	  && grep -q '^/tmp/smartly_bad.v:2:16: parse error: ' /tmp/smartly_bad.err \
	  || { echo "ci: bad Verilog gave exit $$status:"; \
	  cat /tmp/smartly_bad.err; exit 1; }
	dune exec bin/smartly_cli.exe -- opt nosuch_profile --no-ledger \
	  2>/dev/null; \
	  status=$$?; [ "$$status" -eq 2 ] || { \
	  echo "ci: unknown profile gave exit $$status"; exit 1; }
	dune exec bin/smartly_cli.exe -- lint examples/*.v mux_chain riscv
	dune exec bin/smartly_cli.exe -- lint examples/*.v mux_chain riscv \
	  --json > /tmp/smartly_lint.json
	dune exec bin/smartly_cli.exe -- validate-json /tmp/smartly_lint.json
	dune exec bin/smartly_cli.exe -- analyze examples/alu.v --json \
	  > /tmp/smartly_analysis_alu.json
	dune exec bin/smartly_cli.exe -- analyze examples/gray_counter.v --json \
	  > /tmp/smartly_analysis_gray_counter.json
	dune exec bin/smartly_cli.exe -- analyze examples/priority_select.v \
	  --json > /tmp/smartly_analysis_priority_select.json
	dune exec bin/smartly_cli.exe -- validate-json \
	  /tmp/smartly_analysis_alu.json /tmp/smartly_analysis_gray_counter.json \
	  /tmp/smartly_analysis_priority_select.json
	dune exec bin/smartly_cli.exe -- opt mux_chain --flow smartly \
	  --check-invariants
	printf '%s\n' \
	  '{"op":"optimize","id":"ci-1","kind":"profile","source":"mux_chain"}' \
	  '{"op":"optimize","id":"ci-2","kind":"profile","source":"mux_chain"}' \
	  '{"op":"optimize","id":"ci-3","kind":"profile","source":"riscv"}' \
	  '{"op":"shutdown"}' \
	  | dune exec bin/smartly_cli.exe -- serve \
	  > /tmp/smartly_serve_reports.jsonl
	dune exec bin/smartly_cli.exe -- validate-json \
	  /tmp/smartly_serve_reports.jsonl
	dune exec bin/smartly_cli.exe -- opt mux_chain --flow smartly \
	  --json --trace /tmp/smartly_trace.json \
	  --provenance /tmp/smartly_prov.jsonl \
	  > /tmp/smartly_stats.json
	dune exec bin/smartly_cli.exe -- explain /tmp/smartly_prov.jsonl
	dune exec bin/smartly_cli.exe -- validate-json \
	  /tmp/smartly_stats.json /tmp/smartly_trace.json /tmp/smartly_prov.jsonl
	rm -rf /tmp/smartly_satq
	dune exec bin/smartly_cli.exe -- opt riscv --flow smartly \
	  --sat-dump /tmp/smartly_satq
	for f in /tmp/smartly_satq/*.cnf; do \
	  [ -e "$$f" ] || continue; \
	  dune exec bin/smartly_cli.exe -- replay "$$f" || exit 1; \
	done
	rm -rf /tmp/smartly_runs
	dune exec bin/smartly_cli.exe -- opt mux_chain --flow smartly \
	  --ledger-root /tmp/smartly_runs --pass-budget-ms 1 \
	  --check --check-invariants
	run=$$(ls -d /tmp/smartly_runs/*/); \
	dune exec bin/smartly_cli.exe -- report "$$run" && \
	dune exec bin/smartly_cli.exe -- report "$$run" --json \
	  > /tmp/smartly_report.json && \
	dune exec bin/smartly_cli.exe -- validate-json /tmp/smartly_report.json

clean:
	dune clean
