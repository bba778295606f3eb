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
# Three legs.  The paper tables (table2 and table3, which share one run
# of the ten public profiles) and mux_chain must reproduce every
# deterministic counter exactly, table3's SAT query and effort counts
# included.  The second leg gates the industrial section: on the
# mux-rich ind_* designs the walk's data-bit folding dominates the run,
# so a change there must keep their areas and removed-cell counts
# exactly.  The third leg, jobs_per_sec, gates the warm serve batch.
#
# The last step is a self-test of the gate itself: --pessimize turns
# the smartly flows into no-ops, so the re-measured areas genuinely
# regress and the gate MUST fail — if it passes, the gate is broken
# and the target errors out.
bench-check: build
	dune exec bench/main.exe -- table2 table3 mux_chain --check \
	  --threshold-scale 4 --report /tmp/smartly_bench_diff.txt
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

# What CI runs: build, the full test suite, then an end-to-end smoke of
# the observability surface — optimize the fast mux_chain profile with
# a Chrome trace, the JSON run report, and a provenance log; aggregate
# the log with `explain`; and fail unless every artifact parses
# (validate-json is the CLI's own strict parser, so no external tooling
# is needed) and the report is the v4 run report with a metrics object
# and a counters object in its passes.  `opt -v` must print each pass
# call's counters from the run's stream: a sat_elim line naming
# sat_elim.muxes_bypassed.  A second run on riscv — the smallest
# profile whose ladder reaches SAT — dumps its hardest queries and
# replays each one, failing on any verdict mismatch.  The replay loop
# is guarded because a profile resolved entirely by simulation dumps
# zero queries.
# The lint step covers every checked-in example plus the two smoke
# profiles; `lint` exits nonzero on error-severity findings, so a
# regression that makes an example ill-formed fails the build, and the
# JSON report must survive the strict parser.  The analyze step runs
# the value-analysis fixpoint over the three lint-clean examples and
# validates each smartly-analysis-v1 report — the same backend the
# NL010..NL013 rules use, exercised on real sources rather than
# profiles.  The mux_chain optimization is re-run under
# --check-invariants, which validates, lints and equivalence-checks the
# circuit after every pass, once per flow; the Yosys run, which goes
# through the same driver loop as smaRTLy's, is also checked end to end
# with --check.  A serve smoke follows: a 5-line JSONL batch (two identical jobs, a job on a
# latch-inferring source, a riscv job, one shutdown) through the stdio
# daemon, with the per-job smartly-job-v1 stream kept as an artifact
# and parse-validated; the latch job must answer an error line and the
# riscv job after it must still answer ok.
# Finally
# the run-ledger surface: a deliberately budget-starved run (1 ms per
# pass) must still exit 0 with its netlist equivalence-checking — the
# watchdog degrades, never crashes — and `smartly report` must render
# the ledger it left, with the JSON form surviving validate-json.  Its
# provenance line must count a non-zero number of events, read from the
# ledger's events.jsonl, and the run directory must hold no separate
# provenance.jsonl or stats.json: provenance and the report live in the
# event stream.  `report --json` must be the same v4 run report, with a
# metrics object, and `explain` must attribute the run from its ledger
# down to a total row.  The
# bench harness must refuse an unknown section name with exit 2 before
# running anything: a misspelt section in a bench-check leg would
# otherwise leave nothing to compare and pass the gate silently.  A
# source that does not load must end in a located error and exit 2,
# never an uncaught exception: `opt` on a Verilog file with a syntax
# error must name its line and column, `opt` on an unknown profile
# name must exit 2 as well, and so must `generate` of an unknown
# profile and `opt` on a latch-inferring source (a case with no default
# in always @*), naming its combinational cycle; `analyze` on that
# source must name the cycle the same way and exit 2.  A zero-width
# literal (0'b1) must be a located lex error with exit 2.  `replay` of a
# DIMACS file whose problem line declares 10^12 variables over the
# clause "1 0" must load the one variable the clause names and print
# SAT; it runs under a 4 GB address-space limit, so a reader that
# trusted the header fails fast instead of exhausting memory.  A
# directory where a file is expected must be a located error too,
# naming the path: exit 1 from `explain` (a run directory without
# events.jsonl), `report` (a run directory without manifest.json),
# `replay` and `validate-json`, exit 2 from `lint` and `bench-diff`.  `cec` must exit
# 1 on two different designs and 0 on a design against itself: a verdict other than `equivalent`
# fails the command, and with it the budget-starved `--check` run.
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
	printf 'module z(input a, output y);\nassign y = a | 0\047b1;\nendmodule\n' \
	  > /tmp/smartly_zero.v
	dune exec bin/smartly_cli.exe -- opt /tmp/smartly_zero.v --no-ledger \
	  2> /tmp/smartly_zero.err; \
	  status=$$?; [ "$$status" -eq 2 ] \
	  && grep -q '^/tmp/smartly_zero.v:2:[0-9]*: lex error: ' /tmp/smartly_zero.err \
	  || { echo "ci: a zero-width literal gave exit $$status:"; \
	  cat /tmp/smartly_zero.err; exit 1; }
	printf 'p cnf 1000000000000 1\n1 0\n' > /tmp/smartly_big_header.cnf
	( ulimit -v 4000000; dune exec bin/smartly_cli.exe -- replay \
	  /tmp/smartly_big_header.cnf ) > /tmp/smartly_big_header.out; \
	  status=$$?; [ "$$status" -eq 0 ] \
	  && grep -q ': SAT ' /tmp/smartly_big_header.out \
	  || { echo "ci: replay of a 10^12-variable header gave exit $$status:"; \
	  cat /tmp/smartly_big_header.out; exit 1; }
	dune exec bin/smartly_cli.exe -- opt nosuch_profile --no-ledger \
	  2>/dev/null; \
	  status=$$?; [ "$$status" -eq 2 ] || { \
	  echo "ci: unknown profile gave exit $$status"; exit 1; }
	dune exec bin/smartly_cli.exe -- generate nosuch_profile 2>/dev/null; \
	  status=$$?; [ "$$status" -eq 2 ] || { \
	  echo "ci: generate of an unknown profile gave exit $$status"; exit 1; }
	dir=$$(mktemp -d); \
	for cmd in "explain 1" "report 1" "replay 1" "validate-json 1" \
	    "lint 2" "bench-diff 2"; do \
	  set -- $$cmd; args="$$dir"; \
	  [ "$$1" = bench-diff ] && args="$$dir $$dir"; \
	  dune exec bin/smartly_cli.exe -- $$1 $$args 2> /tmp/smartly_dir.err; \
	  status=$$?; [ "$$status" -eq "$$2" ] \
	  && grep -qF "$$dir" /tmp/smartly_dir.err \
	  || { echo "ci: $$1 on a directory gave exit $$status:"; \
	  cat /tmp/smartly_dir.err; rmdir "$$dir"; exit 1; }; \
	done; rmdir "$$dir"
	printf 'module latch(input [1:0] s, input a, input b, output reg y);\nalways @* case (s) 0: y = a; 1: y = b; endcase\nendmodule\n' \
	  > /tmp/smartly_latch.v
	dune exec bin/smartly_cli.exe -- opt /tmp/smartly_latch.v --no-ledger \
	  2> /tmp/smartly_latch.err; \
	  status=$$?; [ "$$status" -eq 2 ] \
	  && grep -q '^/tmp/smartly_latch.v: combinational cycle' \
	    /tmp/smartly_latch.err \
	  || { echo "ci: latch-inferring Verilog gave exit $$status:"; \
	  cat /tmp/smartly_latch.err; exit 1; }
	dune exec bin/smartly_cli.exe -- analyze /tmp/smartly_latch.v \
	  2> /tmp/smartly_latch_analyze.err; \
	  status=$$?; [ "$$status" -eq 2 ] \
	  && grep -q '^/tmp/smartly_latch.v: combinational cycle' \
	    /tmp/smartly_latch_analyze.err \
	  || { echo "ci: analyze of latch-inferring Verilog gave exit $$status:"; \
	  cat /tmp/smartly_latch_analyze.err; exit 1; }
	dune exec bin/smartly_cli.exe -- cec examples/alu.v \
	  examples/priority_select.v; \
	  status=$$?; [ "$$status" -eq 1 ] || { \
	  echo "ci: cec of two different designs gave exit $$status"; exit 1; }
	dune exec bin/smartly_cli.exe -- cec mux_chain mux_chain
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
	dune exec bin/smartly_cli.exe -- opt mux_chain --flow yosys --check \
	  --check-invariants --no-ledger
	printf '%s\n' \
	  '{"op":"optimize","id":"ci-1","kind":"profile","source":"mux_chain"}' \
	  '{"op":"optimize","id":"ci-2","kind":"profile","source":"mux_chain"}' \
	  '{"op":"optimize","id":"ci-latch","kind":"verilog","source":"/tmp/smartly_latch.v"}' \
	  '{"op":"optimize","id":"ci-3","kind":"profile","source":"riscv"}' \
	  '{"op":"shutdown"}' \
	  | dune exec bin/smartly_cli.exe -- serve \
	  > /tmp/smartly_serve_reports.jsonl
	dune exec bin/smartly_cli.exe -- validate-json \
	  /tmp/smartly_serve_reports.jsonl
	grep -q '"id":"ci-latch","status":"error"' \
	  /tmp/smartly_serve_reports.jsonl \
	  && grep -q '"id":"ci-3","status":"ok"' /tmp/smartly_serve_reports.jsonl \
	  || { echo "ci: serve did not answer the latch job with an error" \
	  "and the next job ok"; exit 1; }
	dune exec bin/smartly_cli.exe -- opt mux_chain --flow smartly \
	  --json --trace /tmp/smartly_trace.json \
	  --provenance /tmp/smartly_prov.jsonl \
	  > /tmp/smartly_stats.json
	dune exec bin/smartly_cli.exe -- explain /tmp/smartly_prov.jsonl
	dune exec bin/smartly_cli.exe -- validate-json \
	  /tmp/smartly_stats.json /tmp/smartly_trace.json /tmp/smartly_prov.jsonl
	grep -q '"schema": "smartly-report-v4"' /tmp/smartly_stats.json \
	  && grep -q '"metrics": {' /tmp/smartly_stats.json \
	  && sed -n '/^  "passes": \[/,/^  \]/p' /tmp/smartly_stats.json \
	    | grep -q '"counters": {' \
	  || { echo "ci: opt --json is not the v4 run report with metrics" \
	  "and per-pass counters"; exit 1; }
	dune exec bin/smartly_cli.exe -- opt mux_chain --flow smartly -v \
	  --no-ledger > /tmp/smartly_verbose.txt
	grep -q '^sat_elim:.* sat_elim.muxes_bypassed=' /tmp/smartly_verbose.txt \
	  || { echo "ci: opt -v printed no sat_elim counters:"; \
	  cat /tmp/smartly_verbose.txt; exit 1; }
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
	dune exec bin/smartly_cli.exe -- report "$$run" \
	  > /tmp/smartly_report.txt && cat /tmp/smartly_report.txt && \
	{ grep -Eq '^  provenance: [1-9][0-9]* events' /tmp/smartly_report.txt \
	  || { echo "ci: report shows no provenance from events.jsonl"; exit 1; }; } && \
	{ [ ! -e "$$run/provenance.jsonl" ] \
	  || { echo "ci: ledger wrote a provenance.jsonl"; exit 1; }; } && \
	{ [ ! -e "$$run/stats.json" ] \
	  || { echo "ci: ledger wrote a stats.json"; exit 1; }; } && \
	dune exec bin/smartly_cli.exe -- report "$$run" --json \
	  > /tmp/smartly_report.json && \
	dune exec bin/smartly_cli.exe -- validate-json /tmp/smartly_report.json && \
	{ grep -q '"schema": "smartly-report-v4"' /tmp/smartly_report.json \
	  && grep -q '"metrics": {' /tmp/smartly_report.json \
	  || { echo "ci: report --json is not the v4 run report with metrics"; \
	  exit 1; }; } && \
	dune exec bin/smartly_cli.exe -- explain "$$run" \
	  > /tmp/smartly_explain_run.txt && cat /tmp/smartly_explain_run.txt && \
	{ grep -Eq '^\| +total \|' /tmp/smartly_explain_run.txt \
	  || { echo "ci: explain of the run printed no total row"; exit 1; }; }

clean:
	dune clean
