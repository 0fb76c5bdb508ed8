# Minimal CI entry points. `make ci` is what a pipeline should run.

.PHONY: all build test test-parallel fmt bench-quick bench-gate bundle-gate cli-gate examples bench-pipeline ci clean

all: build

build:
	dune build

test: build
	dune runtest

# The suite again with two worker domains, so every ?jobs code path
# (sharded correlation, parallel segment scans) that takes its default
# runs genuinely parallel in CI; with PT_JOBS unset the default is one
# domain.
test-parallel: build
	PT_JOBS=2 dune runtest --force

# A fast bench smoke: the store, degraded-feed, collection-plane,
# hierarchical-correlation, sharded-correlation, diagnosis and bundle
# figures on quick grids, with the machine-readable summary CI can diff
# (BENCH.json is untracked output; the BENCH_*.json files in the repo
# are committed reference runs).
bench-quick: build
	dune exec bench/main.exe -- --quick --figure store --figure degraded --figure collect --figure hierarchy --figure mesh --figure parallel --figure diagnose --figure bundle --json BENCH.json

# Ingest-throughput gate: run the store figure fresh and compare its
# native-arena ingest throughput against the committed reference run
# (BENCH_store.json); fail below half of it — wide enough to absorb
# shared-host timing noise, tight enough to catch a real hot-path
# regression. The store, hierarchy and mesh figures' deterministic checks
# (reduction fidelity, root reduction and digest identity, preset accuracy
# and serial = sharded) are tests in `dune runtest`: test_store,
# test_hierarchy and test_mesh.
bench-gate: build
	dune exec bench/main.exe -- --quick --figure store --gate BENCH_store.json

# Bundle round-trip gate: record a control and a faulted run as PTZ1
# bundles, then exercise every reader path — info (container framing),
# query (embedded-store pruning), walk (back-link resolution) and diff
# (culprit naming) — so a bundle written by HEAD is always readable by
# HEAD. The same run captured as a several-segment store directory must
# pack to the same bytes at one, two and four jobs, and read back; and
# both pack sources (in-memory arenas and a store directory) must embed
# the same rows, so their `bundle query -o` dumps cmp equal. The JSON of
# `bundle diff` must name the same culprit subject as `diagnose --json`
# on the same seed and fault; no unit test reaches the CLI's JSON writers.
bundle-gate: build
	rm -rf _bundle_gate && mkdir -p _bundle_gate
	dune exec bin/precisetracer.exe -- simulate -c 60 --scale 0.05 --seed 11 --bundle _bundle_gate/control.ptz
	dune exec bin/precisetracer.exe -- simulate -c 60 --scale 0.05 --seed 11 --fault ejb-delay --bundle _bundle_gate/fault.ptz
	dune exec bin/precisetracer.exe -- bundle info _bundle_gate/control.ptz
	dune exec bin/precisetracer.exe -- bundle query _bundle_gate/control.ptz --since-ms 500
	dune exec bin/precisetracer.exe -- bundle walk _bundle_gate/control.ptz
	dune exec bin/precisetracer.exe -- bundle diff _bundle_gate/control.ptz _bundle_gate/fault.ptz --json _bundle_gate/diff.json
	dune exec bin/precisetracer.exe -- diagnose -c 60 --scale 0.05 --seed 11 --fault ejb-delay --json _bundle_gate/diagnose.json
	diff=$$(awk -F'"' '/"culprit"/ { c = 1 } c && $$2 == "subject" { print $$4; exit }' _bundle_gate/diff.json); \
	diag=$$(awk -F'"' '$$2 == "subject" { print $$4; exit }' _bundle_gate/diagnose.json); \
	echo "culprit: bundle diff '$$diff', diagnose '$$diag'"; \
	test -n "$$diff" && test "$$diff" = "$$diag"
	dune exec bin/precisetracer.exe -- simulate -c 60 --scale 0.05 --seed 11 --store _bundle_gate/store --segment-records 2000
	dune exec bin/precisetracer.exe -- bundle pack _bundle_gate/store -o _bundle_gate/s1.ptz --jobs 1
	dune exec bin/precisetracer.exe -- bundle pack _bundle_gate/store -o _bundle_gate/s2.ptz --jobs 2
	dune exec bin/precisetracer.exe -- bundle pack _bundle_gate/store -o _bundle_gate/s4.ptz --jobs 4
	cmp _bundle_gate/s1.ptz _bundle_gate/s2.ptz
	cmp _bundle_gate/s1.ptz _bundle_gate/s4.ptz
	dune exec bin/precisetracer.exe -- bundle walk _bundle_gate/s1.ptz
	dune exec bin/precisetracer.exe -- bundle query _bundle_gate/s1.ptz
	dune exec bin/precisetracer.exe -- bundle query _bundle_gate/control.ptz -o _bundle_gate/q-control
	dune exec bin/precisetracer.exe -- bundle query _bundle_gate/s1.ptz -o _bundle_gate/q-store
	cmp _bundle_gate/q-control/traces.ptb _bundle_gate/q-store/traces.ptb
	rm -rf _bundle_gate

# CLI import gate: one seeded run saved four ways — text logs, a binary
# PTB1 file, a several-segment store, and a store teed in-band by the
# collection plane next to its text logs — must correlate to byte-identical
# path exports within each run, offline and (from a store) through the
# online replay, and so must a copy of the store after `store compact`
# merged its small segments; the offline and online store runs, and the offline run
# that also packs a bundle (which packs the paths it made, not a second
# correlation), must also report the same path, candidate and CAG counts
# under the same telemetry names. The
# loader that reads all three formats lives in bin/, so no unit test
# reaches it. Empty *.trace files add no host: with two beside the text
# logs, the online replay still emits the same paths live (a host with no
# rows would hold every path back until close), and a directory whose
# trace files are all empty is an error (exit 1, "no traces in").
# The in-band plane is batch-invariant: the run collected at the default
# agent batch and at --collect-batch 1 prints the same "collect: N causal
# paths online" line, with N the path count of `correlate` on its logs.
# An agent reduces only by program: --agent-policy causal is a usage
# error (124) naming --store-policy, and a noisy run whose agents drop
# sshd and mysql prints the same "collect:" line as the unfiltered run,
# reports app1's dropped rows as reduced, and its collected store
# correlates to the same paths as its own text logs.
# An entry endpoint that no flow reaches (a mesh run correlated at the
# RUBiS default entry, or the RUBiS store packed at an unused --entry) is
# a runtime failure for correlate and bundle pack, from a trace dir or a
# store: exit 1 naming the endpoint and suggesting --entry; the right
# --entry packs all 40 paths.
# The same run on the hierarchical plane
# (two replicas, two shards) must report no flagged-deformed path at the
# root, and some under an agent crash; the flat plane must survive the
# crash too. A truncated store segment and a truncated bundle are runtime
# failures: exit 1 (not Cmdliner's 124) with an error naming an offset.
# Outputs: "--json -" prints the document alone on stdout (the same bytes
# as --json FILE) and leaves no file named "-", and a second "-" document
# is a usage error (124); an unwritable output, and a diagnose run whose
# --pattern neither run has, exit 1; an unwritable bundle is reported
# under its own name, with no ".tmp" file left behind; a preset name
# that mesh or simulate --topology does not take is a bad command line:
# 124 with usage ("random" has no declarative spec and is no prefix).
# A pack times the stages decode, profile, encode (back-links included)
# and write; `bundle pack STORE` adds correlate, while `correlate
# --bundle` packs the paths it made and has none.
# Parallel work runs only where asked: with PT_JOBS unset, `correlate`
# writes no pt_parallel_ sample, while `--jobs 2` reports two worker
# domains and exports the same paths. A simulate option that would do
# nothing without the option it needs (here --collect-batch without
# --collect) is a usage error (124) naming that option.
# A live baseline saved from a healthy run arms a later db-lock run, which
# must name tier mysqld; a baseline file in the retired pt-baseline-1
# format exits 1 with an error naming the file.
CLI_SIM = dune exec bin/precisetracer.exe -- simulate -c 40 --scale 0.05 --seed 11
CLI_CORRELATE = dune exec bin/precisetracer.exe -- correlate
CLI_EXE = $(CURDIR)/_build/default/bin/precisetracer.exe
cli-gate: build
	rm -rf _cli_gate && mkdir -p _cli_gate
	$(CLI_SIM) -o _cli_gate/text
	$(CLI_SIM) --binary -o _cli_gate/binary
	$(CLI_SIM) --store _cli_gate/store --segment-records 2000
	$(CLI_SIM) --collect --store _cli_gate/collect-store -o _cli_gate/collect-text
	for d in text binary store collect-store collect-text; do \
		$(CLI_CORRELATE) _cli_gate/$$d --json _cli_gate/$$d.json || exit 1; \
	done
	$(CLI_CORRELATE) _cli_gate/store --online --json _cli_gate/store-online.json \
		--telemetry _cli_gate/store-online.prom --telemetry-format prom
	$(CLI_CORRELATE) _cli_gate/store --telemetry _cli_gate/store.prom --telemetry-format prom
	$(CLI_CORRELATE) _cli_gate/store --bundle _cli_gate/store-paths.ptz \
		--telemetry _cli_gate/store-bundle.prom --telemetry-format prom
	for m in 'pt_correlator_paths_total{state="finished"}' pt_ranker_candidates_total; do \
		off=$$(awk -v m="$$m" '$$1 == m' _cli_gate/store.prom); \
		on=$$(awk -v m="$$m" '$$1 == m' _cli_gate/store-online.prom); \
		packed=$$(awk -v m="$$m" '$$1 == m' _cli_gate/store-bundle.prom); \
		echo "telemetry parity: offline '$$off', online '$$on', with --bundle '$$packed'"; \
		test -n "$$off" && test "$$off" = "$$on" && test "$$off" = "$$packed" || exit 1; \
	done
	$(CLI_CORRELATE) _cli_gate/collect-store --online --json _cli_gate/collect-store-online.json
	cp -r _cli_gate/text _cli_gate/text-empty
	: > _cli_gate/text-empty/aa0.trace
	: > _cli_gate/text-empty/zz1.trace
	$(CLI_CORRELATE) _cli_gate/text --online > _cli_gate/text-online.txt
	$(CLI_CORRELATE) _cli_gate/text-empty --online --json _cli_gate/text-empty-online.json \
		> _cli_gate/text-empty-online.txt
	grep 'emitted live' _cli_gate/text-empty-online.txt
	test "$$(grep 'emitted live' _cli_gate/text-online.txt)" = \
		"$$(grep 'emitted live' _cli_gate/text-empty-online.txt)"
	cmp _cli_gate/text.json _cli_gate/text-empty-online.json
	mkdir _cli_gate/no-rows && : > _cli_gate/no-rows/web1.trace
	$(CLI_CORRELATE) _cli_gate/no-rows 2> _cli_gate/no-rows.err; test $$? -eq 1
	grep -q 'no traces in' _cli_gate/no-rows.err
	cmp _cli_gate/text.json _cli_gate/binary.json
	cmp _cli_gate/text.json _cli_gate/store.json
	cmp _cli_gate/text.json _cli_gate/store-online.json
	cmp _cli_gate/collect-text.json _cli_gate/collect-store.json
	cmp _cli_gate/collect-text.json _cli_gate/collect-store-online.json
	cp -r _cli_gate/store _cli_gate/compact-store
	$(CLI_EXE) store compact _cli_gate/compact-store --min-records 8192 | tee _cli_gate/compact.txt
	grep -q ' [1-9][0-9]* merged into' _cli_gate/compact.txt
	$(CLI_CORRELATE) _cli_gate/compact-store --json _cli_gate/compact-store.json > /dev/null
	cmp _cli_gate/text.json _cli_gate/compact-store.json
	cp -r _cli_gate/store _cli_gate/cut-store
	head -c 300 _cli_gate/store/seg-000000.pts > _cli_gate/cut-store/seg-000000.pts
	$(CLI_CORRELATE) _cli_gate/cut-store 2> _cli_gate/cut-store.err; test $$? -eq 1
	cat _cli_gate/cut-store.err
	grep -q 'offset [0-9]' _cli_gate/cut-store.err
	dune exec bin/precisetracer.exe -- bundle pack _cli_gate/store -o _cli_gate/store.ptz \
		--telemetry _cli_gate/store-pack.prom --telemetry-format prom
	for f in store-bundle store-pack; do \
		stages=$$(sed -n 's/^pt_bundle_pack_stage_seconds_count{stage="\([a-z]*\)"} 1$$/\1/p' _cli_gate/$$f.prom | sort | tr '\n' ' '); \
		echo "pack stages ($$f): $$stages"; \
		case $$f in \
			store-bundle) test "$$stages" = "decode encode profile write " || exit 1 ;; \
			store-pack) test "$$stages" = "correlate decode encode profile write " || exit 1 ;; \
		esac; \
	done
	head -c 2000 _cli_gate/store.ptz > _cli_gate/cut.ptz
	dune exec bin/precisetracer.exe -- bundle walk _cli_gate/cut.ptz 2> _cli_gate/cut-bundle.err; test $$? -eq 1
	cat _cli_gate/cut-bundle.err
	grep -q 'offset [0-9]' _cli_gate/cut-bundle.err
	$(CLI_SIM) --collect-shards 2 --replicas 2 > _cli_gate/hier.txt
	cat _cli_gate/hier.txt
	grep -q 'at the root (0 flagged deformed' _cli_gate/hier.txt
	$(CLI_SIM) --collect-shards 2 --replicas 2 --fault agent-crash > _cli_gate/hier-crash.txt
	cat _cli_gate/hier-crash.txt
	grep -Eq 'at the root \([1-9][0-9]* flagged deformed' _cli_gate/hier-crash.txt
	$(CLI_SIM) --collect --fault agent-crash
	$(CLI_SIM) --collect -o _cli_gate/batch > _cli_gate/batch.txt
	$(CLI_SIM) --collect --collect-batch 1 > _cli_gate/batch1.txt
	$(CLI_CORRELATE) _cli_gate/batch > _cli_gate/batch-offline.txt
	n=$$(sed -n 's/^\([0-9]*\) causal paths (.*/\1/p' _cli_gate/batch-offline.txt); \
	line="collect: $$n causal paths online (0 flagged deformed, 0 unfinished)"; \
	echo "batch invariance: '$$line'"; \
	test -n "$$n" && grep -qxF "$$line" _cli_gate/batch.txt && grep -qxF "$$line" _cli_gate/batch1.txt
	$(CLI_SIM) --collect --agent-policy causal 2> _cli_gate/agent-policy.err; test $$? -eq 124
	cat _cli_gate/agent-policy.err
	grep -q -- '--store-policy' _cli_gate/agent-policy.err
	$(CLI_SIM) --noise --collect > _cli_gate/noise.txt
	$(CLI_SIM) --noise --collect --agent-policy drop=sshd+mysql \
		--store _cli_gate/noise-drop-store -o _cli_gate/noise-drop > _cli_gate/noise-drop.txt
	grep -E '^collect:|agent app1:' _cli_gate/noise-drop.txt
	test -n "$$(grep '^collect:' _cli_gate/noise.txt)"
	test "$$(grep '^collect:' _cli_gate/noise.txt)" = "$$(grep '^collect:' _cli_gate/noise-drop.txt)"
	grep -Eq '^  agent app1: observed [0-9]+, reduced [1-9]' _cli_gate/noise-drop.txt
	$(CLI_CORRELATE) _cli_gate/noise-drop --json _cli_gate/noise-drop.json > /dev/null
	$(CLI_CORRELATE) _cli_gate/noise-drop-store --json _cli_gate/noise-drop-store.json > /dev/null
	cmp _cli_gate/noise-drop.json _cli_gate/noise-drop-store.json
	$(CLI_EXE) simulate --topology control --seed 7 -o _cli_gate/mesh > /dev/null
	$(CLI_EXE) bundle pack _cli_gate/mesh -o _cli_gate/mesh.ptz 2> _cli_gate/entry.err; test $$? -eq 1
	cat _cli_gate/entry.err
	grep -q 'entry endpoint 10.0.1.1:80; .* --entry' _cli_gate/entry.err
	test ! -e _cli_gate/mesh.ptz
	$(CLI_CORRELATE) _cli_gate/mesh 2> _cli_gate/entry.err; test $$? -eq 1
	grep -q 'entry endpoint 10.0.1.1:80; .* --entry' _cli_gate/entry.err
	$(CLI_EXE) bundle pack _cli_gate/mesh -o _cli_gate/mesh.ptz --entry 10.120.1.1:8000 \
		| grep '^40 paths'
	$(CLI_EXE) bundle pack _cli_gate/store -o _cli_gate/unreached.ptz --entry 10.9.9.9:80 \
		2> _cli_gate/entry.err; test $$? -eq 1
	cat _cli_gate/entry.err
	grep -q 'entry endpoint 10.9.9.9:80; .* --entry' _cli_gate/entry.err
	test ! -e _cli_gate/unreached.ptz
	cd _cli_gate && $(CLI_EXE) correlate text --json - > text-stdout.json
	cmp _cli_gate/text.json _cli_gate/text-stdout.json
	cd _cli_gate && $(CLI_EXE) bundle diff store.ptz store.ptz --json diff.json
	cd _cli_gate && $(CLI_EXE) bundle diff store.ptz store.ptz --json - > diff-stdout.json
	cmp _cli_gate/diff.json _cli_gate/diff-stdout.json
	test ! -e _cli_gate/-
	env -u PT_JOBS $(CLI_CORRELATE) _cli_gate/text \
		--telemetry _cli_gate/jobs-default.prom --telemetry-format prom > /dev/null
	! grep -q '^pt_parallel_' _cli_gate/jobs-default.prom
	env -u PT_JOBS $(CLI_CORRELATE) _cli_gate/text --jobs 2 --json _cli_gate/jobs2.json \
		--telemetry _cli_gate/jobs2.prom --telemetry-format prom > /dev/null
	grep -qx 'pt_parallel_jobs 2.0' _cli_gate/jobs2.prom
	cmp _cli_gate/text.json _cli_gate/jobs2.json
	$(CLI_SIM) --collect-batch 3 2> _cli_gate/needs.err; test $$? -eq 124
	cat _cli_gate/needs.err
	grep -q -- '--collect-batch applies only with --collect' _cli_gate/needs.err
	$(CLI_CORRELATE) _cli_gate/text --json - --telemetry - > _cli_gate/two.out 2> _cli_gate/usage.err; \
		test $$? -eq 124
	grep -q 'already writes to stdout' _cli_gate/usage.err
	$(CLI_SIM) --bundle /nonexistent/q.ptz 2> _cli_gate/write.err; test $$? -eq 1
	cat _cli_gate/write.err
	grep -q 'cannot write /nonexistent/q.ptz: ' _cli_gate/write.err
	! grep -q '\.tmp' _cli_gate/write.err
	mkdir _cli_gate/dir.ptz
	$(CLI_CORRELATE) _cli_gate/text --bundle _cli_gate/dir.ptz; test $$? -eq 1
	test ! -e _cli_gate/dir.ptz.tmp
	$(CLI_CORRELATE) _cli_gate/text --json /nonexistent/x.json 2> _cli_gate/write.err; test $$? -eq 1
	grep -q 'cannot write /nonexistent/x.json' _cli_gate/write.err
	dune exec bin/precisetracer.exe -- store query _cli_gate/store -o /nonexistent/q 2> _cli_gate/write.err; test $$? -eq 1
	grep -q 'cannot write /nonexistent/q' _cli_gate/write.err
	dune exec bin/precisetracer.exe -- diagnose -c 60 --scale 0.05 --seed 11 --fault db-lock --pattern nope; test $$? -eq 1
	dune exec bin/precisetracer.exe -- mesh nope 2> _cli_gate/usage.err; test $$? -eq 124
	grep -q '^Usage:' _cli_gate/usage.err
	dune exec bin/precisetracer.exe -- simulate --topology random 2> _cli_gate/usage.err; test $$? -eq 124
	grep -q '^Usage:' _cli_gate/usage.err
	$(CLI_EXE) diagnose --live -c 60 --scale 0.05 --seed 11 --save-baseline _cli_gate/baseline.json
	$(CLI_EXE) diagnose --live -c 60 --scale 0.05 --seed 11 --fault db-lock \
		--baseline _cli_gate/baseline.json --json - > _cli_gate/live.json
	grep -q '"first_culprit": "tier mysqld"' _cli_gate/live.json
	sed 's/"pt-baseline-2"/"pt-baseline-1"/' _cli_gate/baseline.json > _cli_gate/baseline-v1.json
	$(CLI_EXE) diagnose --live -c 60 --scale 0.05 --seed 11 \
		--baseline _cli_gate/baseline-v1.json 2> _cli_gate/baseline-v1.err; test $$? -eq 1
	cat _cli_gate/baseline-v1.err
	grep -q '_cli_gate/baseline-v1.json: baseline: unsupported format' _cli_gate/baseline-v1.err
	rm -rf _cli_gate

# Run the five examples, which `dune build` compiles but nothing else
# runs (~4 s). trace_files writes into _examples/, removed afterwards;
# online_monitor, a `Diagnose.Live.run` of a mid-run Database_Lock, must
# name the database tier and raise no throughput_drop false alarm.
EXAMPLE = $(CURDIR)/_build/default/examples
examples: build
	rm -rf _examples && mkdir -p _examples
	$(EXAMPLE)/quickstart.exe
	$(EXAMPLE)/bottleneck_hunt.exe
	$(EXAMPLE)/fault_injection.exe
	$(EXAMPLE)/trace_files.exe _examples
	$(EXAMPLE)/online_monitor.exe > _examples/online_monitor.out
	cat _examples/online_monitor.out
	grep -q 'first culprit named: tier mysqld' _examples/online_monitor.out
	! grep -q throughput_drop _examples/online_monitor.out
	rm -rf _examples

# The pipeline benchmark (bench/pipeline/README.md), untraced, on all four
# workloads at its full run length; fails unless every run prints
# "correct":true. Not part of `ci`: `dune runtest` already runs its smoke.
bench-pipeline: build
	@for w in rubis_offline mesh_offline noisy_live rubis_capture; do \
		out=$$(bash bench/pipeline/run.sh --workload $$w --trace 0); \
		printf '%s\n' "$$out"; \
		printf '%s\n' "$$out" | tail -n 1 | grep -q '"correct":true' || exit 1; \
	done

# Formatting check is advisory: the container does not ship ocamlformat,
# so skip (with a note) when the tool is absent rather than failing CI.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

ci: fmt build test test-parallel bench-quick bench-gate bundle-gate cli-gate examples

clean:
	dune clean
