#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the full test suite.
#
# Usage: scripts/ci.sh [--fix]
#   --fix   run `cargo fmt` in write mode instead of --check
#
# The build environment has no crates.io access; everything below runs
# with --offline against the vendored shims in shims/.

set -euo pipefail
cd "$(dirname "$0")/.."

FMT_ARGS=(--check)
if [[ "${1:-}" == "--fix" ]]; then
    FMT_ARGS=()
fi

echo "==> cargo fmt ${FMT_ARGS[*]:-}"
cargo fmt --all -- "${FMT_ARGS[@]}"

# What `git status` says now, after formatting: the last step checks that
# building, testing and the smokes left the work tree as they found it.
TREE_BEFORE=""
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    TREE_BEFORE="$(git status --porcelain)"
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings: broken, private or ambiguous doc links)"
# Also checks the docs that macros generate, such as the serving-counter
# table's in spsel-core's telemetry module.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "==> cargo test (tier-1: root package)"
cargo test -q --offline

echo "==> cargo test (full workspace)"
cargo test -q --offline --workspace

echo "==> perfbench (the benchmark builds and its own tests pass)"
# perfbench/ is a Cargo workspace of its own, so the steps above never
# build it: a library name it imports could vanish unnoticed until the
# benchmark runs. Build it into the root target/ so that no untracked
# directory appears.
CARGO_TARGET_DIR="$PWD/target" cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> fault-injection smoke (table binaries under 5% faults)"
cargo build -q --release --offline -p spsel-bench --bin table2 --bin table3
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

# Start a daemon in the background, wait for its listening line, and
# export SERVE_PID / ADDR. Usage: spawn_daemon OUTFILE [daemon args...]
spawn_daemon() {
    local out=$1
    shift
    ./target/release/spsel-serve "$@" > "$out" 2>/dev/null &
    SERVE_PID=$!
    for _ in $(seq 1 100); do
        grep -q 'listening on' "$out" && break
        sleep 0.1
    done
    ADDR="$(awk '/listening on/ {print $3}' "$out")"
}
# table2 is static but must still accept and survive the fault flags.
./target/release/table2 --faults 0.05 --json "$SMOKE_DIR/table2.json" >/dev/null
# table3 benchmarks a small corpus under faults: it must exit 0 and its
# run report must carry an enabled degradation section.
./target/release/table3 --quick --no-cache --faults 0.05 \
    --json "$SMOKE_DIR/table3.json" >/dev/null
REPORT="$SMOKE_DIR/table3.json.report.json"
grep -q '"degradation"' "$REPORT"
grep -q '"faults_enabled": *true' "$REPORT"

echo "==> experiment-cache smoke (warm table4 rerun must hit)"
cargo build -q --release --offline -p spsel-bench --bin table4
# First run populates the per-table experiment cache; the second must be
# served from it (report: one experiment hit, zero misses) and print the
# identical table.
./target/release/table4 --quick --cache "$SMOKE_DIR/cache" \
    --json "$SMOKE_DIR/table4-cold.json" > "$SMOKE_DIR/table4-cold.txt"
./target/release/table4 --quick --cache "$SMOKE_DIR/cache" \
    --json "$SMOKE_DIR/table4-warm.json" > "$SMOKE_DIR/table4-warm.txt"
grep -q '"experiment_hits": *1' "$SMOKE_DIR/table4-warm.json.report.json"
grep -q '"experiment_misses": *0' "$SMOKE_DIR/table4-warm.json.report.json"
cmp "$SMOKE_DIR/table4-cold.txt" "$SMOKE_DIR/table4-warm.txt"
cmp "$SMOKE_DIR/table4-cold.json" "$SMOKE_DIR/table4-warm.json"

echo "==> record-cache smoke (overlapping --base runs share every record)"
# Record keys are independent of the corpus size, so a run at a smaller
# --base must assemble its whole corpus from the shards a larger run left
# behind: record-level hits only, zero record misses, and tables byte-
# identical to an uncached run of the same size.
./target/release/table4 --quick --base 132 --cache "$SMOKE_DIR/rcache" \
    --json "$SMOKE_DIR/t4-large.json" > "$SMOKE_DIR/t4-large.txt"
./target/release/table4 --quick --base 120 --cache "$SMOKE_DIR/rcache" \
    --json "$SMOKE_DIR/t4-overlap.json" > "$SMOKE_DIR/t4-overlap.txt"
OVERLAP_REPORT="$SMOKE_DIR/t4-overlap.json.report.json"
grep -q '"record_misses": *0' "$OVERLAP_REPORT"
grep -Eq '"record_hits": *[1-9]' "$OVERLAP_REPORT"
# The acceptance bar is a >=90% record-level hit ratio on the warm run.
awk -F'"record_hits": *' '
    NF > 1 { split($2, a, /[,}\n]/); hits = a[1] + 0 }
    /"record_misses"/ { split($0, m, /"record_misses": */); split(m[2], b, /[,}\n]/); misses = b[1] + 0 }
    END { exit !(hits > 0 && hits / (hits + misses) >= 0.9) }
' "$OVERLAP_REPORT" || { echo "record hit ratio below 90% in $OVERLAP_REPORT" >&2; exit 1; }
./target/release/table4 --quick --base 120 --no-cache \
    --json "$SMOKE_DIR/t4-ref.json" > "$SMOKE_DIR/t4-ref.txt"
cmp "$SMOKE_DIR/t4-ref.txt" "$SMOKE_DIR/t4-overlap.txt"
cmp "$SMOKE_DIR/t4-ref.json" "$SMOKE_DIR/t4-overlap.json"

echo "==> serving smoke (artifact train/inspect, daemon round-trips, loadgen)"
cargo build -q --release --offline -p spsel-serve -p spsel-bench \
    --bin spsel --bin spsel-serve --bin select --bin loadgen
# Cold train writes the artifact and populates the artifact-bytes cache;
# the warm rerun must be served from it without retraining.
./target/release/spsel train --out "$SMOKE_DIR/model.spsel" --quick \
    --cache "$SMOKE_DIR/cache" > "$SMOKE_DIR/train-cold.txt"
./target/release/spsel train --out "$SMOKE_DIR/model.spsel" --quick \
    --cache "$SMOKE_DIR/cache" > "$SMOKE_DIR/train-warm.txt"
grep -q 'artifact-cache hit' "$SMOKE_DIR/train-warm.txt"
grep -q 'model hits' "$SMOKE_DIR/train-warm.txt"
./target/release/spsel inspect "$SMOKE_DIR/model.spsel" > "$SMOKE_DIR/inspect.txt"
grep -q 'artifact v1' "$SMOKE_DIR/inspect.txt"
# The select CLI must decide from the artifact, and fail typed (nonzero
# exit, error envelope on stderr) on a missing matrix.
printf '%%%%MatrixMarket matrix coordinate real general\n4 4 5\n1 1 1.0\n2 2 2.0\n3 3 3.0\n4 4 4.0\n4 1 0.5\n' \
    > "$SMOKE_DIR/smoke.mtx"
./target/release/select "$SMOKE_DIR/smoke.mtx" --model "$SMOKE_DIR/model.spsel" \
    > "$SMOKE_DIR/select.txt"
grep -q 'Pascal' "$SMOKE_DIR/select.txt"
if ./target/release/select "$SMOKE_DIR/missing.mtx" --model "$SMOKE_DIR/model.spsel" \
    2> "$SMOKE_DIR/select-err.txt"; then
    echo "select must fail on a missing matrix" >&2; exit 1
fi
grep -q '"code":"io"' "$SMOKE_DIR/select-err.txt"
# Daemon: ephemeral port, one request per type, clean shutdown, and a run
# report carrying the serving counters.
./target/release/spsel-serve --model "$SMOKE_DIR/model.spsel" \
    --json "$SMOKE_DIR/serve-report.json" > "$SMOKE_DIR/serve.out" 2>/dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q 'listening on' "$SMOKE_DIR/serve.out" && break
    sleep 0.1
done
ADDR="$(awk '/listening on/ {print $3}' "$SMOKE_DIR/serve.out")"
./target/release/spsel request "$ADDR" \
    '{"Select":{"matrix":null,"features":null,"gpu":"pascal","iterations":500,"deadline_ms":null,"learn":true}}' \
    > "$SMOKE_DIR/r-bad.json"
grep -q '"code":"bad_request"' "$SMOKE_DIR/r-bad.json"
./target/release/spsel request "$ADDR" \
    "{\"Select\":{\"matrix\":\"$SMOKE_DIR/smoke.mtx\",\"features\":null,\"gpu\":\"pascal\",\"iterations\":500,\"deadline_ms\":null,\"learn\":true}}" \
    > "$SMOKE_DIR/r-select.json"
grep -q '"ok":true' "$SMOKE_DIR/r-select.json"
./target/release/spsel request "$ADDR" \
    '{"Feedback":{"gpu":"pascal","cluster":0,"best":"csr"}}' > "$SMOKE_DIR/r-feedback.json"
grep -q '"ok":true' "$SMOKE_DIR/r-feedback.json"
./target/release/spsel request "$ADDR" '"Stats"' > "$SMOKE_DIR/r-stats.json"
grep -q '"select_requests":1' "$SMOKE_DIR/r-stats.json"
# Contention counters must be visible in the stats reply.
grep -q '"write_lock_acquisitions":' "$SMOKE_DIR/r-stats.json"
grep -q '"snapshot_swaps":' "$SMOKE_DIR/r-stats.json"
grep -q '"snapshot_version":' "$SMOKE_DIR/r-stats.json"
grep -q '"shard_feedbacks":' "$SMOKE_DIR/r-stats.json"
# ...as must the per-phase decision-path counters and the dedicated
# decision-latency histogram quantiles.
grep -q '"timed_decisions":' "$SMOKE_DIR/r-stats.json"
grep -q '"decision_extract_ns":' "$SMOKE_DIR/r-stats.json"
grep -q '"decision_embed_ns":' "$SMOKE_DIR/r-stats.json"
grep -q '"decision_assign_ns":' "$SMOKE_DIR/r-stats.json"
grep -q '"decision_label_ns":' "$SMOKE_DIR/r-stats.json"
grep -q '"decision_p50_us":' "$SMOKE_DIR/r-stats.json"
grep -q '"decision_p99_us":' "$SMOKE_DIR/r-stats.json"
# One symmetric matrix written five ways — `real general` row-major with
# LF, column-major with CRLF and comments, `real symmetric` (lower
# triangle), `real symmetric` upper triangle, and row-major with its last
# two entries swapped — must read to the same matrix: the daemon's JSON
# replies for the five files are byte-identical. The row-major and lower
# triangle files stream into the extractor; the column-major, the
# upper-triangle and the swapped file (whose order proof fails only at
# its last entry) take the fallback.
printf '%%%%MatrixMarket matrix coordinate real general\n4 4 10\n1 1 4.0\n1 2 1.0\n1 4 2.0\n2 1 1.0\n2 2 5.0\n3 3 6.0\n3 4 3.0\n4 1 2.0\n4 3 3.0\n4 4 7.0\n' \
    > "$SMOKE_DIR/sym-rows.mtx"
printf '%%%%MatrixMarket matrix coordinate real general\r\n%% column-major\r\n4 4 10\r\n1 1 4.0\r\n2 1 1.0\r\n4 1 2.0\r\n%% column 2\r\n1 2 1.0\r\n2 2 5.0\r\n3 3 6.0\r\n4 3 3.0\r\n1 4 2.0\r\n3 4 3.0\r\n4 4 7.0\r\n' \
    > "$SMOKE_DIR/sym-cols.mtx"
printf '%%%%MatrixMarket matrix coordinate real symmetric\n4 4 7\n1 1 4.0\n2 1 1.0\n2 2 5.0\n3 3 6.0\n4 1 2.0\n4 3 3.0\n4 4 7.0\n' \
    > "$SMOKE_DIR/sym-lower.mtx"
printf '%%%%MatrixMarket matrix coordinate real symmetric\n4 4 7\n1 1 4.0\n1 2 1.0\n1 4 2.0\n2 2 5.0\n3 3 6.0\n3 4 3.0\n4 4 7.0\n' \
    > "$SMOKE_DIR/sym-upper.mtx"
printf '%%%%MatrixMarket matrix coordinate real general\n4 4 10\n1 1 4.0\n1 2 1.0\n1 4 2.0\n2 1 1.0\n2 2 5.0\n3 3 6.0\n3 4 3.0\n4 1 2.0\n4 4 7.0\n4 3 3.0\n' \
    > "$SMOKE_DIR/sym-lastswap.mtx"
for f in sym-rows sym-cols sym-lower sym-upper sym-lastswap; do
    ./target/release/spsel request "$ADDR" \
        "{\"Select\":{\"matrix\":\"$SMOKE_DIR/$f.mtx\",\"features\":null,\"gpu\":\"pascal\",\"iterations\":500,\"deadline_ms\":null,\"learn\":false}}" \
        > "$SMOKE_DIR/r-$f.json"
done
grep -q '"ok":true' "$SMOKE_DIR/r-sym-rows.json"
cmp "$SMOKE_DIR/r-sym-rows.json" "$SMOKE_DIR/r-sym-cols.json"
cmp "$SMOKE_DIR/r-sym-rows.json" "$SMOKE_DIR/r-sym-lower.json"
cmp "$SMOKE_DIR/r-sym-rows.json" "$SMOKE_DIR/r-sym-upper.json"
cmp "$SMOKE_DIR/r-sym-rows.json" "$SMOKE_DIR/r-sym-lastswap.json"
# The select CLI reads the five files to the same matrix and decision
# too (its first line names the file, so the path is masked).
for f in sym-rows sym-cols sym-lower sym-upper sym-lastswap; do
    ./target/release/select "$SMOKE_DIR/$f.mtx" --model "$SMOKE_DIR/model.spsel" 2>/dev/null \
        | sed "s|$SMOKE_DIR/$f.mtx|MATRIX|" > "$SMOKE_DIR/select-$f.txt"
done
grep -q 'Pascal' "$SMOKE_DIR/select-sym-rows.txt"
cmp "$SMOKE_DIR/select-sym-rows.txt" "$SMOKE_DIR/select-sym-cols.txt"
cmp "$SMOKE_DIR/select-sym-rows.txt" "$SMOKE_DIR/select-sym-lower.txt"
cmp "$SMOKE_DIR/select-sym-rows.txt" "$SMOKE_DIR/select-sym-upper.txt"
cmp "$SMOKE_DIR/select-sym-rows.txt" "$SMOKE_DIR/select-sym-lastswap.txt"
# A 70-byte file declaring a 4e9 x 4e9 shape parses (0 entries), but its
# CSR form would need 32 GB of row pointers. Declared shapes are capped
# at MAX_MATRIX_DIM = 2^24 = 16777216 rows or columns: past the cap in
# either dimension, the daemon and the CLI refuse the file typed and the
# daemon goes on answering selects; exactly at the cap, both serve it,
# the CLI within the 4 GiB address space the abort was reproduced in.
for shape in 'huge 4000000000 4000000000' 'over-rows 16777217 1' \
    'over-cols 1 16777217' 'at-cap 16777216 16777216'; do
    read -r name nrows ncols <<< "$shape"
    printf '%%%%MatrixMarket matrix coordinate real general\n%s %s 0\n' "$nrows" "$ncols" \
        > "$SMOKE_DIR/$name.mtx"
done
for f in huge over-rows over-cols at-cap; do
    ./target/release/spsel request "$ADDR" \
        "{\"Select\":{\"matrix\":\"$SMOKE_DIR/$f.mtx\",\"features\":null,\"gpu\":\"pascal\",\"iterations\":500,\"deadline_ms\":null,\"learn\":false}}" \
        > "$SMOKE_DIR/r-$f.json"
done
for f in huge over-rows over-cols; do
    grep -q '"code":"too_large"' "$SMOKE_DIR/r-$f.json"
    if ./target/release/select "$SMOKE_DIR/$f.mtx" --model "$SMOKE_DIR/model.spsel" \
        2> "$SMOKE_DIR/select-$f-err.txt"; then
        echo "select must refuse $f.mtx" >&2; exit 1
    fi
    grep -q '"code":"too_large"' "$SMOKE_DIR/select-$f-err.txt"
done
grep -q '"ok":true' "$SMOKE_DIR/r-at-cap.json"
(ulimit -v 4194304 && ./target/release/select "$SMOKE_DIR/at-cap.mtx" \
    --model "$SMOKE_DIR/model.spsel" 2>/dev/null) > "$SMOKE_DIR/select-at-cap.txt"
grep -q '16777216 x 16777216 matrix, 0 nonzeros' "$SMOKE_DIR/select-at-cap.txt"
./target/release/spsel request "$ADDR" \
    "{\"Select\":{\"matrix\":\"$SMOKE_DIR/sym-rows.mtx\",\"features\":null,\"gpu\":\"pascal\",\"iterations\":500,\"deadline_ms\":null,\"learn\":false}}" \
    > "$SMOKE_DIR/r-after-huge.json"
cmp "$SMOKE_DIR/r-sym-rows.json" "$SMOKE_DIR/r-after-huge.json"
./target/release/spsel request "$ADDR" '"Shutdown"' > "$SMOKE_DIR/r-shutdown.json"
grep -q '"stopping":true' "$SMOKE_DIR/r-shutdown.json"
wait "$SERVE_PID"
grep -q '"serving"' "$SMOKE_DIR/serve-report.json"
grep -q '"feedback_applied": *1' "$SMOKE_DIR/serve-report.json"
# The daemon journals feedback next to the artifact by default.
grep -q '"journal_appended": *1' "$SMOKE_DIR/serve-report.json"
test -s "$SMOKE_DIR/model.spsel.journal"
# Load test: 32 concurrent clients against an in-process daemon, zero
# failed requests (loadgen exits nonzero otherwise).
./target/release/loadgen --clients 32 --requests 5 --feedback \
    --model "$SMOKE_DIR/model.spsel" > "$SMOKE_DIR/loadgen.txt" 2>/dev/null
grep -q ' 0 failed' "$SMOKE_DIR/loadgen.txt"

echo "==> serving restart smoke (journal replay round-trip)"
# Second life: same artifact, same journal. The feedback recorded above
# must be replayed, and a read-only select must answer identically
# across two independent restarts.
./target/release/spsel-serve --model "$SMOKE_DIR/model.spsel" \
    > "$SMOKE_DIR/serve2.out" 2>/dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q 'listening on' "$SMOKE_DIR/serve2.out" && break
    sleep 0.1
done
ADDR="$(awk '/listening on/ {print $3}' "$SMOKE_DIR/serve2.out")"
./target/release/spsel request "$ADDR" \
    "{\"Select\":{\"matrix\":\"$SMOKE_DIR/smoke.mtx\",\"features\":null,\"gpu\":\"pascal\",\"iterations\":500,\"deadline_ms\":null,\"learn\":false}}" \
    > "$SMOKE_DIR/r2-select.json"
grep -q '"ok":true' "$SMOKE_DIR/r2-select.json"
./target/release/spsel request "$ADDR" '"Stats"' > "$SMOKE_DIR/r2-stats.json"
grep -q '"journal_replayed":1' "$SMOKE_DIR/r2-stats.json"
grep -q '"journal_skipped":0' "$SMOKE_DIR/r2-stats.json"
./target/release/spsel request "$ADDR" '"Shutdown"' >/dev/null
wait "$SERVE_PID"
# Third life: the replayed state must yield a byte-identical reply.
./target/release/spsel-serve --model "$SMOKE_DIR/model.spsel" \
    > "$SMOKE_DIR/serve3.out" 2>/dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q 'listening on' "$SMOKE_DIR/serve3.out" && break
    sleep 0.1
done
ADDR="$(awk '/listening on/ {print $3}' "$SMOKE_DIR/serve3.out")"
./target/release/spsel request "$ADDR" \
    "{\"Select\":{\"matrix\":\"$SMOKE_DIR/smoke.mtx\",\"features\":null,\"gpu\":\"pascal\",\"iterations\":500,\"deadline_ms\":null,\"learn\":false}}" \
    > "$SMOKE_DIR/r3-select.json"
cmp "$SMOKE_DIR/r2-select.json" "$SMOKE_DIR/r3-select.json"
./target/release/spsel request "$ADDR" '"Shutdown"' >/dev/null
wait "$SERVE_PID"

echo "==> read-only flood smoke (lock-free decisions, machine-readable bench)"
# A learn:false flood must never take the write path: the bench record
# proves zero write-lock acquisitions and zero snapshot swaps.
./target/release/loadgen --clients 8 --requests 10 --read-frac 1.0 \
    --model "$SMOKE_DIR/model.spsel" --bench-json "$SMOKE_DIR/BENCH_serve.json" \
    > "$SMOKE_DIR/loadgen-ro.txt" 2>/dev/null
grep -q ' 0 failed' "$SMOKE_DIR/loadgen-ro.txt"
grep -q '"write_lock_acquisitions": *0' "$SMOKE_DIR/BENCH_serve.json"
grep -q '"snapshot_swaps": *0' "$SMOKE_DIR/BENCH_serve.json"
grep -q '"write_decisions": *0' "$SMOKE_DIR/BENCH_serve.json"
grep -q '"throughput_rps"' "$SMOKE_DIR/BENCH_serve.json"

echo "==> decision-path budget (allocation-free hot path, p99 under the old p50)"
# The steady-state select path must stay bit-identical to the code it
# replaced and allocation-free: the proptest equivalence suites and the
# counting-allocator test are the gate.
cargo test -q --offline -p spsel-features --test properties
cargo test -q --offline -p spsel-matrix --test spmv_equivalence
cargo test -q --offline -p spsel-core --test zero_alloc
# Budget: the decision-path p99 (extract+embed+assign+label, measured by
# the daemon's nanosecond histogram and excluding pipeline queue time)
# must sit below 31 us — the *median* request latency of the pre-
# optimization read flood (see "The decision-path budget" in
# EXPERIMENTS.md). Enforced on both the committed BENCH_serve.json and
# the flood record regenerated above.
check_decision_budget() {
    local file=$1
    grep -q '"decision_p99_us":' "$file"
    awk -F'"decision_p99_us": *' '
        NF > 1 { split($2, a, /[,}\n]/); if (a[1] + 0 >= 31.0) bad = 1 }
        END { exit bad }
    ' "$file" || { echo "decision_p99_us >= 31.0 in $file" >&2; exit 1; }
}
check_decision_budget "$SMOKE_DIR/BENCH_serve.json"
check_decision_budget BENCH_serve.json
# At least one timed decision must back those quantiles up.
grep -q '"timed_decisions": *[1-9]' "$SMOKE_DIR/BENCH_serve.json"

echo "==> binary-protocol smoke (negotiated framing, replies bit-identical to JSON)"
# One daemon, two protocols. Every read-only request is issued over JSON
# and again over the binary framing; the CLI prints both through the same
# serializer, so the outputs must be byte-identical.
./target/release/spsel-serve --model "$SMOKE_DIR/model.spsel" \
    > "$SMOKE_DIR/serve4.out" 2>/dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q 'listening on' "$SMOKE_DIR/serve4.out" && break
    sleep 0.1
done
ADDR="$(awk '/listening on/ {print $3}' "$SMOKE_DIR/serve4.out")"
SELECT_REQ="{\"Select\":{\"matrix\":\"$SMOKE_DIR/smoke.mtx\",\"features\":null,\"gpu\":\"pascal\",\"iterations\":500,\"deadline_ms\":null,\"learn\":false}}"
BATCH_REQ="{\"Batch\":{\"requests\":[{\"matrix\":\"$SMOKE_DIR/smoke.mtx\",\"features\":null,\"gpu\":\"pascal\",\"iterations\":300,\"learn\":false},{\"matrix\":\"$SMOKE_DIR/smoke.mtx\",\"features\":null,\"gpu\":\"volta\",\"iterations\":300,\"learn\":false}],\"deadline_ms\":null}}"
./target/release/spsel request "$ADDR" "$SELECT_REQ" > "$SMOKE_DIR/b-select-json.json"
./target/release/spsel request --binary "$ADDR" "$SELECT_REQ" > "$SMOKE_DIR/b-select-bin.json"
cmp "$SMOKE_DIR/b-select-json.json" "$SMOKE_DIR/b-select-bin.json"
./target/release/spsel request "$ADDR" "$BATCH_REQ" > "$SMOKE_DIR/b-batch-json.json"
./target/release/spsel request --binary "$ADDR" "$BATCH_REQ" > "$SMOKE_DIR/b-batch-bin.json"
cmp "$SMOKE_DIR/b-batch-json.json" "$SMOKE_DIR/b-batch-bin.json"
./target/release/spsel request --binary "$ADDR" \
    '{"Feedback":{"gpu":"pascal","cluster":0,"best":"csr"}}' > "$SMOKE_DIR/b-feedback.json"
grep -q '"ok":true' "$SMOKE_DIR/b-feedback.json"
./target/release/spsel request --binary "$ADDR" '"Stats"' > "$SMOKE_DIR/b-stats.json"
# select + batch + feedback + stats over the binary framing so far.
grep -q '"binary_requests":4' "$SMOKE_DIR/b-stats.json"
grep -q '"shed":0' "$SMOKE_DIR/b-stats.json"

echo "==> torn-frame smoke (request split mid-line over live TCP)"
# A request line torn across two TCP writes with a pause in between must
# reassemble and answer normally. (Byte-level binary-frame splits are
# swept exhaustively by crates/serve/tests/robustness.rs in the
# workspace test step above.)
HOST="${ADDR%:*}"; PORT="${ADDR##*:}"
exec 3<>"/dev/tcp/$HOST/$PORT"
HALF=$(( ${#SELECT_REQ} / 2 ))
printf '%s' "${SELECT_REQ:0:HALF}" >&3
sleep 0.2
printf '%s\n' "${SELECT_REQ:HALF}" >&3
IFS= read -r TORN_REPLY <&3
exec 3<&- 3>&-
printf '%s\n' "$TORN_REPLY" | cmp - "$SMOKE_DIR/b-select-json.json"
./target/release/spsel request --binary "$ADDR" '"Shutdown"' > "$SMOKE_DIR/b-shutdown.json"
grep -q '"stopping":true' "$SMOKE_DIR/b-shutdown.json"
wait "$SERVE_PID"

echo "==> mini-soak (256 persistent pipelined binary connections, zero failures)"
./target/release/loadgen --clients 8 --connections 256 --pipeline 4 \
    --requests 4 --read-frac 1.0 --protocol binary \
    --model "$SMOKE_DIR/model.spsel" --bench-json "$SMOKE_DIR/BENCH_soak.json" \
    > "$SMOKE_DIR/loadgen-soak.txt" 2>/dev/null
grep -q ' 0 failed' "$SMOKE_DIR/loadgen-soak.txt"
grep -q '"connections": *256' "$SMOKE_DIR/BENCH_soak.json"
grep -q '"protocol": *"binary"' "$SMOKE_DIR/BENCH_soak.json"
grep -q '"shed": *0' "$SMOKE_DIR/BENCH_soak.json"

echo "==> crash-recovery smoke (kill -9 mid-soak, restart, probe vs uninterrupted control)"
# Two daemons get identical traffic: five learning selects (each opens or
# joins an online cluster and journals an Observe) and one feedback.
# --checkpoint-every 4 forces a compaction mid-traffic, so the restart
# exercises checkpoint load *plus* journal-tail replay. The first daemon
# is kill -9ed (no clean shutdown, no flush opportunity); its
# post-restart read-only probe must be byte-identical to the probe of
# the control daemon that was never interrupted.
LEARN_REQ="{\"Select\":{\"matrix\":\"$SMOKE_DIR/smoke.mtx\",\"features\":null,\"gpu\":\"pascal\",\"iterations\":500,\"deadline_ms\":null,\"learn\":true}}"
PROBE_REQ="{\"Select\":{\"matrix\":\"$SMOKE_DIR/smoke.mtx\",\"features\":null,\"gpu\":\"pascal\",\"iterations\":500,\"deadline_ms\":null,\"learn\":false}}"
FB_REQ='{"Feedback":{"gpu":"pascal","cluster":0,"best":"ell"}}'
spawn_daemon "$SMOKE_DIR/crash1.out" --model "$SMOKE_DIR/model.spsel" \
    --journal "$SMOKE_DIR/crash.journal" --checkpoint-every 4
for _ in 1 2 3 4 5; do
    ./target/release/spsel request "$ADDR" "$LEARN_REQ" >/dev/null
done
./target/release/spsel request "$ADDR" "$FB_REQ" >/dev/null
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
# The mid-traffic compaction must have left an atomic checkpoint behind.
test -s "$SMOKE_DIR/crash.journal.checkpoint"
spawn_daemon "$SMOKE_DIR/crash2.out" --model "$SMOKE_DIR/model.spsel" \
    --journal "$SMOKE_DIR/crash.journal" --checkpoint-every 4
./target/release/spsel request "$ADDR" "$PROBE_REQ" > "$SMOKE_DIR/crash-probe.json"
./target/release/spsel request "$ADDR" '"Stats"' > "$SMOKE_DIR/crash-stats.json"
# Lifecycle state must be visible in the stats reply: the checkpoint
# covers the first 4 records, the journal tail carries the other 2.
grep -q '"journal_attached":true' "$SMOKE_DIR/crash-stats.json"
grep -q '"checkpoint_seq":4' "$SMOKE_DIR/crash-stats.json"
grep -q '"last_seq":6' "$SMOKE_DIR/crash-stats.json"
./target/release/spsel request "$ADDR" '"Shutdown"' >/dev/null
wait "$SERVE_PID"
# Control: same flags, same traffic, never killed.
spawn_daemon "$SMOKE_DIR/control.out" --model "$SMOKE_DIR/model.spsel" \
    --journal "$SMOKE_DIR/control.journal" --checkpoint-every 4
for _ in 1 2 3 4 5; do
    ./target/release/spsel request "$ADDR" "$LEARN_REQ" >/dev/null
done
./target/release/spsel request "$ADDR" "$FB_REQ" >/dev/null
./target/release/spsel request "$ADDR" "$PROBE_REQ" > "$SMOKE_DIR/control-probe.json"
./target/release/spsel request "$ADDR" '"Shutdown"' >/dev/null
wait "$SERVE_PID"
cmp "$SMOKE_DIR/crash-probe.json" "$SMOKE_DIR/control-probe.json"

echo "==> replica catch-up smoke (two processes, follower converges via sync)"
# A leader accumulates online state; a --follow replica must catch up
# before it binds and answer read-only probes byte-identically.
spawn_daemon "$SMOKE_DIR/leader.out" --model "$SMOKE_DIR/model.spsel" \
    --journal "$SMOKE_DIR/leader.journal"
LEADER_PID=$SERVE_PID
LEADER_ADDR=$ADDR
for _ in 1 2 3; do
    ./target/release/spsel request "$LEADER_ADDR" "$LEARN_REQ" >/dev/null
done
./target/release/spsel request "$LEADER_ADDR" "$FB_REQ" >/dev/null
spawn_daemon "$SMOKE_DIR/follower.out" --model "$SMOKE_DIR/model.spsel" \
    --follow "$LEADER_ADDR"
./target/release/spsel request "$LEADER_ADDR" "$PROBE_REQ" > "$SMOKE_DIR/leader-probe.json"
./target/release/spsel request "$ADDR" "$PROBE_REQ" > "$SMOKE_DIR/follower-probe.json"
cmp "$SMOKE_DIR/leader-probe.json" "$SMOKE_DIR/follower-probe.json"
./target/release/spsel request "$ADDR" '"Stats"' > "$SMOKE_DIR/follower-stats.json"
grep -q '"sync_records_applied":[1-9]' "$SMOKE_DIR/follower-stats.json"
./target/release/spsel request "$LEADER_ADDR" '"Stats"' > "$SMOKE_DIR/leader-stats.json"
grep -q '"sync_requests":[1-9]' "$SMOKE_DIR/leader-stats.json"
./target/release/spsel request "$ADDR" '"Shutdown"' >/dev/null
wait "$SERVE_PID"
./target/release/spsel request "$LEADER_ADDR" '"Shutdown"' >/dev/null
wait "$LEADER_PID"

echo "==> table byte-identity gate (quick tables vs committed baselines)"
# The default 4-format registry must keep reproducing the paper tables
# bit-for-bit: regenerate table 4/6/7 with --quick --no-cache and compare
# text and JSON against the committed baselines. Any drift — a registry
# change leaking into the default label pipeline, a reordered format, a
# float formatting change — fails the build here.
cargo build -q --release --offline -p spsel-bench \
    --bin table6 --bin table7 --bin formatzoo
for t in table4 table6 table7; do
    ./target/release/"$t" --quick --no-cache --json "$SMOKE_DIR/$t.json" \
        > "$SMOKE_DIR/$t.txt" 2>/dev/null
    cmp "baselines/$t.txt" "$SMOKE_DIR/$t.txt"
    cmp "baselines/$t.json" "$SMOKE_DIR/$t.json"
done
# ...and again with one worker thread, the way the benchmark runs them:
# the parallel fits (forest trees, booster class trees, CV folds) must
# not depend on the worker count.
for t in table4 table6 table7; do
    SPSEL_THREADS=1 ./target/release/"$t" --quick --no-cache \
        --json "$SMOKE_DIR/$t-1t.json" > "$SMOKE_DIR/$t-1t.txt" 2>/dev/null
    cmp "baselines/$t.txt" "$SMOKE_DIR/$t-1t.txt"
    cmp "baselines/$t.json" "$SMOKE_DIR/$t-1t.json"
done

echo "==> format-zoo smoke (extended registry, nonzero disagreement table)"
# The extended registry must label all three workloads and find real
# cross-workload disagreement — a zero total would mean the SpMM cost
# model collapsed onto SpMV.
./target/release/formatzoo --quick --no-cache \
    --json "$SMOKE_DIR/formatzoo.json" > "$SMOKE_DIR/formatzoo.txt" 2>/dev/null
grep -q 'total cross-workload disagreements: [1-9]' "$SMOKE_DIR/formatzoo.txt"
grep -q '"registry_digest"' "$SMOKE_DIR/formatzoo.json"

echo "==> workload serving smoke (explicit workload over both protocols)"
# A select with an explicit workload must round-trip over JSON and the
# binary framing with byte-identical replies; an unknown workload must be
# a typed error envelope, not a dropped connection.
spawn_daemon "$SMOKE_DIR/wl.out" --model "$SMOKE_DIR/model.spsel"
WL_REQ="{\"Select\":{\"matrix\":\"$SMOKE_DIR/smoke.mtx\",\"features\":null,\"gpu\":\"pascal\",\"iterations\":500,\"deadline_ms\":null,\"learn\":false,\"workload\":\"spmm4\"}}"
./target/release/spsel request "$ADDR" "$WL_REQ" > "$SMOKE_DIR/wl-json.json"
./target/release/spsel request --binary "$ADDR" "$WL_REQ" > "$SMOKE_DIR/wl-bin.json"
cmp "$SMOKE_DIR/wl-json.json" "$SMOKE_DIR/wl-bin.json"
grep -q '"workload":"spmm4"' "$SMOKE_DIR/wl-json.json"
BAD_WL_REQ="{\"Select\":{\"matrix\":\"$SMOKE_DIR/smoke.mtx\",\"features\":null,\"gpu\":\"pascal\",\"iterations\":500,\"deadline_ms\":null,\"learn\":false,\"workload\":\"gemm\"}}"
./target/release/spsel request "$ADDR" "$BAD_WL_REQ" > "$SMOKE_DIR/wl-bad.json"
grep -q '"code":"unknown_workload"' "$SMOKE_DIR/wl-bad.json"
# ...and the connection-level path: loadgen tags every select with the
# workload, drives both protocols, and records it in the bench JSON.
./target/release/loadgen --clients 4 --requests 5 --read-frac 1.0 \
    --protocol both --workload spmm4 --addr "$ADDR" \
    --bench-json "$SMOKE_DIR/BENCH_wl.json" > "$SMOKE_DIR/loadgen-wl.txt" 2>/dev/null
grep -q ' 0 failed' "$SMOKE_DIR/loadgen-wl.txt"
grep -q '"workload": *"spmm4"' "$SMOKE_DIR/BENCH_wl.json"
./target/release/spsel request "$ADDR" '"Shutdown"' >/dev/null
wait "$SERVE_PID"

echo "==> corpus growth smoke (journal ingest feeds the next training run)"
# The serving smokes above journaled learn:true observations next to the
# artifact. Ingest promotes the distinct ones into the cache's growth
# shards; a retrain against the same cache must fold them in (the grown
# context keys differently, so the artifact-bytes cache cannot hit) and
# a second ingest of the same journal must append nothing.
./target/release/spsel corpus ingest --journal "$SMOKE_DIR/model.spsel.journal" \
    --quick --cache "$SMOKE_DIR/cache" > "$SMOKE_DIR/ingest.txt"
grep -Eq '[1-9][0-9]* appended' "$SMOKE_DIR/ingest.txt"
./target/release/spsel corpus ingest --journal "$SMOKE_DIR/model.spsel.journal" \
    --quick --cache "$SMOKE_DIR/cache" > "$SMOKE_DIR/ingest2.txt"
grep -q ' 0 appended' "$SMOKE_DIR/ingest2.txt"
./target/release/spsel train --out "$SMOKE_DIR/model-grown.spsel" --quick \
    --cache "$SMOKE_DIR/cache" --json "$SMOKE_DIR/train-grown.json" \
    > "$SMOKE_DIR/train-grown.txt"
grep -q 'corpus growth:' "$SMOKE_DIR/train-grown.txt"
if grep -q 'artifact-cache hit' "$SMOKE_DIR/train-grown.txt"; then
    echo "grown corpus must not be served from the pre-growth artifact cache" >&2
    exit 1
fi

echo "==> work tree unchanged (nothing above may write tracked or unignored files)"
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    TREE_AFTER="$(git status --porcelain)"
    if [[ "$TREE_AFTER" != "$TREE_BEFORE" ]]; then
        echo "the work tree changed during CI:" >&2
        diff <(echo "$TREE_BEFORE") <(echo "$TREE_AFTER") >&2 || true
        exit 1
    fi
else
    echo "(not a git work tree: skipped)"
fi

echo "CI green."
