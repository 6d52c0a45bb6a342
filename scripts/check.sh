#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass, runnable fully offline.
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting gate: the workspace stays rustfmt-clean.
cargo fmt --all -- --check
cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings
# The same lints over the proptest-gated modules, which the line above
# never compiles.
cargo clippy --all-targets --features proptest -- -D warnings
# The benchmark (BENCHMARK.json) is a Cargo package of its own, which the
# workspace lines above never build. Its unit tests check every workload's
# tiny-scale golden counters against the library crates it compiles
# against, e.g. formal_proof's 36,028 BDD nodes, 11 fixpoint iterations,
# 19 ASM states and 64 transitions.
CARGO_TARGET_DIR=target cargo test -q --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
CARGO_TARGET_DIR=target cargo clippy --all-targets \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- -D warnings
# One serialization path (DESIGN.md §14): every JSON document is a
# `la1_core::json::Json` value laid out by its renderers, so an escaped
# JSON key in a non-test source anywhere else is JSON built by hand.
if grep -rn --include=*.rs -E '\\"[A-Za-z0-9_]+\\": ' crates src examples \
    | grep -v -E '/tests\.rs:|/tests/|crates/core/src/json\.rs:'; then
    echo "check.sh: JSON built by hand outside la1_core::json" >&2; exit 1
fi
# Value-type equivalence gate (DESIGN.md §6): the RTL crate's proptests
# pin both simulator value types, `LogicVec` and the 64-lane `PackedVec`,
# kernel by kernel and lane by lane to the `Logic` truth tables.
cargo test -q -p la1-rtl --features proptest > /dev/null
# Crate proptest gate: every other crate's property sweeps, among them
# the SERE automaton vs a reference matcher, the monitor circuits vs that
# automaton, SystemC vs RTL on random programs and the checkpoint-restore
# sweeps that pin both LA-1 driver instances (scalar and 64-lane).
cargo test -q -p la1-bdd -p la1-psl -p la1-asm -p la1-eventsim -p la1-smc -p la1-ovl \
    -p la1-core -p la1-cover -p la1-fault -p la1-farm --features proptest > /dev/null

# Table 3 direction gate: the SystemC-level flow must stay at least as
# fast per cycle as the RTL+OVL flow at every bank count (the paper's
# surviving qualitative claim; see EXPERIMENTS.md). The ratio check
# lives inside the binary (--assert-ratio, nonzero exit on failure);
# the shell only checks the exit code.
./target/release/table3 1000 200 --assert-ratio 1.0 > /dev/null
# Fault-injection smoke gate (DESIGN.md §8): every built-in fault model
# must be caught by at least one detection channel at the RTL+OVL level,
# and the healthy design must never trip the closed-loop watchdog. Runs
# the debug build so the protocol asserts behind the guard channel are
# exercised exactly as the test suite sees them. `--batched` runs the
# campaign through the 64-lane engine with the scalar engine as a
# byte-identity reference (DESIGN.md §10), so one line gates both.
cargo run -q -p la1-bench --bin campaign -- 1 2 --smoke --batched > /dev/null
# Coverage-closure smoke gate (DESIGN.md §9): the coverage-guided
# generator must close 100% of tier-1 bins deterministically at 1 and 2
# banks within the fixed smoke budget; the binary exits non-zero with
# the unhit bins otherwise.
./target/release/closure --smoke > /dev/null
# Transaction-level traffic gate (DESIGN.md §11): the three NPU
# workloads (multi-master contention, QDR burst sweep, Zipf packet
# lookup) must reproduce identical transaction counters at every model
# level, scoreboard clean on all 64 batched lanes, close the tier-3
# traffic coverage bins, and stay visible on the monitor's three fault
# channels. All counters are deterministic; only the lookups/s perf
# figures vary run to run.
./target/release/traffic --smoke > /dev/null
# Bit-parallel throughput gates (DESIGN.md §10). Floors sit below the
# measured release numbers on a 1-core host (see EXPERIMENTS.md, "Bit-parallel throughput") so
# timing noise does not flake the gate. Since the scalar engine works a
# word at a time (DESIGN.md §10) the ratios are lower: on a 2-vCPU VM the
# raw kernel measured 10.5-15.3x (floor 8) and the 64-stream closure
# 3.7-6.3x (floor 3). The rtl-level campaign read 2.9-6.9x when it timed
# one run per engine, so it takes the ratio of the medians of 11
# interleaved scalar/batched pairs: 5.54-6.15x in 21 runs (floor 4). Each line also
# re-asserts batched == scalar byte identity before timing is even
# consulted (the campaign line on every run).
./target/release/throughput 4 --cycles 2000 --assert-speedup 8 > /dev/null
./target/release/campaign 4 --batched --levels rtl --assert-speedup 4 > /dev/null
./target/release/closure --smoke --assert-speedup 3 > /dev/null
# Verification-farm gates (DESIGN.md §12). The smoke line runs every
# plan kind (sharded campaign, closure stream groups, exploration
# sweep) at 1 and 4 workers with fixed seeds and asserts inside the
# binary that the merged reports AND the per-job serve streams are
# byte-identical across worker counts, that the campaign merge equals
# the unsharded engine's matrix, that tier-1 coverage closes, and that
# exploration passes.
./target/release/farm --smoke > /dev/null
# The scaling line gates farm throughput at 4 banks on the batched
# engines: >=2.5x at 4 workers over 1 worker on the campaign and
# closure plans when 4+ cores are available. On smaller hosts the
# binary degrades the floor to max(0.5, 2.5*cores/4) — a
# threading-overhead check — and notes the waiver on stderr.
./target/release/farm 4 --workers 1,4 --runs 12 --budget 60000 --assert-scaling 2.5 > /dev/null
# Fault-tolerance gates (DESIGN.md §13).
# (1) Self-chaos convergence: seeded panics, synthetic timeouts and
# delays are injected into 3 job indices of every smoke plan; with 2
# retries the binary asserts each chaos pass is byte-identical to a
# clean chaos-free reference pass at every worker count — injected
# faults must be fully healed, never papered over.
./target/release/farm --smoke --chaos 99 --max-retries 2 > /dev/null
# (2) Kill-and-resume: a journaled campaign is SIGKILLed mid-run, then
# resumed from the write-ahead journal; the resumed merged report must
# be byte-identical to an uninterrupted run's (only incomplete jobs
# re-execute — the binary replays the journaled prefix verbatim).
FARM_TMP=$(mktemp -d)
trap 'rm -rf "$FARM_TMP"' EXIT
./target/release/farm 2 --mode campaign --jobs 8 --runs 400 --scalar --workers 1 \
    --merged-json "$FARM_TMP/clean.json" > /dev/null
./target/release/farm 2 --mode campaign --jobs 8 --runs 400 --scalar --workers 1 \
    --journal "$FARM_TMP/journal.jsonl" > /dev/null 2>&1 &
FARM_PID=$!
sleep 1.2
kill -9 "$FARM_PID" 2> /dev/null || true
wait "$FARM_PID" 2> /dev/null || true
./target/release/farm 2 --mode campaign --jobs 8 --runs 400 --scalar --workers 1 \
    --resume "$FARM_TMP/journal.jsonl" --merged-json "$FARM_TMP/resumed.json" > /dev/null
diff "$FARM_TMP/clean.json" "$FARM_TMP/resumed.json" > /dev/null \
    || { echo "check.sh: resumed farm report diverged from the clean run" >&2; exit 1; }
# (3) Broken-pipe serve: a consumer hanging up after 3 lines must stop
# the stream but not the run — the farm still finishes and exits 0.
./target/release/farm --smoke --serve 2> /dev/null | head -n 3 > /dev/null
# Checkpoint gates (DESIGN.md §14).
# (1) Equivalence smoke at 1 and 2 banks: parse-and-restore of a
# serialized snapshot must land on state byte-identical to replaying
# the recorded preamble trace, scalar and 64-lane batched; the binary
# re-captures both end states and compares the serialized bytes
# before reporting any timing (no speedup floor here — equivalence,
# not speed, is the tier-1 contract).
./target/release/checkpoint --smoke > /dev/null
# (2) The differential restore-equivalence suite, widened with the
# property-based sweeps: random seeds and random cut cycles across all
# four levels plus the batched engine, pins/verdicts/coverage compared
# every cycle after restore.
cargo test -q --test checkpoint_equivalence --features proptest > /dev/null
# (3) SIGKILL-mid-stage + restore-from-snapshot: a journaled
# warm-started closure farm (every shard restores a 4000-cycle
# preamble from its snapshot instead of re-running it) is SIGKILLed
# mid-run and resumed; the resumed merged report must be
# byte-identical to an uninterrupted warm run. The journal header pins
# the plan fingerprint — which covers the preamble trace *and*
# snapshots — so a resume against a drifted preamble refuses instead
# of silently mixing campaigns.
./target/release/farm 2 --mode closure --jobs 400 --runs 1 --budget 60000 \
    --preamble 4000 --workers 1 --merged-json "$FARM_TMP/warm_clean.json" > /dev/null
./target/release/farm 2 --mode closure --jobs 400 --runs 1 --budget 60000 \
    --preamble 4000 --workers 1 --journal "$FARM_TMP/warm_journal.jsonl" > /dev/null 2>&1 &
FARM_PID=$!
sleep 1.2
kill -9 "$FARM_PID" 2> /dev/null || true
wait "$FARM_PID" 2> /dev/null || true
./target/release/farm 2 --mode closure --jobs 400 --runs 1 --budget 60000 \
    --preamble 4000 --workers 1 --resume "$FARM_TMP/warm_journal.jsonl" \
    --merged-json "$FARM_TMP/warm_resumed.json" > /dev/null
diff "$FARM_TMP/warm_clean.json" "$FARM_TMP/warm_resumed.json" > /dev/null \
    || { echo "check.sh: warm-resumed closure report diverged from the clean run" >&2; exit 1; }

echo "check.sh: all gates passed"
