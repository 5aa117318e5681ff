#!/usr/bin/env bash
# Full local gate: everything CI would run, offline.
#
#   scripts/check.sh            # build + tests + fmt + clippy
#
# The build is fully vendored (see vendor/), so --offline always works.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --offline --workspace

echo "== cargo build --examples =="
cargo build --release --offline --examples

# perfbench is its own cargo workspace: build and test it here, or an
# API change can break the benchmark without `--workspace` noticing.
echo "== perfbench build + tests =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo test =="
cargo test -q --offline --workspace

echo "== crash-consistency harness (annoda-persist) =="
cargo test -q --offline --test persist_recovery

# The B12 smoke run fails if throughput at 16 connections drops below
# throughput at 1 connection — the event-loop regression guard.
echo "== serve loadgen smoke (B12) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- serve --smoke

echo "== persistence smoke (B9) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- persist --smoke

echo "== query-serving smoke (B10) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- query-serve --smoke

echo "== federation smoke (B11) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- federation --smoke

# The B13 smoke keeps the full 10k-locus corpus and fails if indexed
# top-k diverges from the naive-scan oracle (recall < 1.0), if the p50
# speedup falls under 10x, or if the tri-source locus stops outranking
# single-source hits. Smoke runs never rewrite BENCH_*.json.
echo "== ranked-search smoke (B13) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- search --smoke

# The B14 smoke spins up a 4-shard leader plus two WAL-shipping followers,
# checks aggregate read throughput does not fall as serving nodes are
# added, and fails if follower lag does not converge to zero after the
# write load stops.
echo "== replication smoke (B14) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- replication --smoke

# The B15 smoke shards the store 1 -> 2 -> 4 ways under 4 concurrent
# MVCC writers and fails if commit throughput stops growing with the
# shard count or concurrent readers' pinned-snapshot p99 leaves 2x of
# the idle baseline.
echo "== sharded MVCC store smoke (B15) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- sharded --smoke

# The B16 smoke tails a live change feed into a durable 4-shard serving
# node under a mixed read load and fails if read p99 leaves 2x of the
# idle baseline at any mutation rate, if any shard's WAL passes its
# compaction bound, or if the absorbed state is not byte-identical to a
# full re-fetch.
echo "== streaming change-feed smoke (B16) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- stream --smoke

echo "== sharded store byte-identity + commit-conflict properties =="
cargo test -q --offline --test sharded_props

echo "== kill-the-leader failover e2e (leader + 2 followers over TCP, 1 and 4 shards) =="
cargo test -q --offline --test replica_e2e

echo "== replication resume/corruption properties =="
cargo test -q --offline --test replica_props

echo "== stream absorb-equivalence + resume properties =="
cargo test -q --offline --test stream_props

echo "== kill-the-source feed failover e2e (tailer resumes at acked seq) =="
cargo test -q --offline -p annoda-stream

echo "== annoda-serve command line (refusals, sharded leader + follower) =="
cargo test -q --offline -p annoda-serve --test cli

echo "== federation e2e (3 source-servers over TCP) =="
cargo test -q --offline --test federation_e2e

echo "== parallel evaluator equivalence =="
cargo test -q --offline -p annoda-lorel --test parallel_oracle

echo "== parallel evaluator under ThreadSanitizer (nightly-only, best effort) =="
# TSan needs a nightly toolchain with rust-src for -Zbuild-std; skip
# cleanly when the box doesn't have one, but propagate real test
# failures when it does.
if rustup toolchain list 2>/dev/null | grep -q nightly \
    && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q 'rust-src (installed)'; then
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q --offline \
        -Zbuild-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
        -p annoda-lorel --test parallel_oracle -- wide_store_join_is_deterministic_across_worker_counts
else
    echo "(skipped: no nightly toolchain with rust-src installed)"
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== OK =="
