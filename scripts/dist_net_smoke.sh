#!/usr/bin/env bash
# Socket-transport chaos smoke for remote worker fleets (DESIGN.md §12),
# run by the chaos-smoke CI job:
#
#   1. generate a database and compute the reference panel with a
#      single-process `catapult_cli mine` run;
#   2. run the same mine sharded over a Unix-domain socket fleet, SIGKILL
#      one catapult_worker mid-run, and let a clean survivor absorb the
#      orphaned shard — the panel must byte-match the reference;
#   3. run it again over TCP loopback with one clean worker — byte-match
#      again, and the report JSON must carry the remote membership block;
#      the supervisor's --trace-out must be one valid Chrome-trace JSON
#      file with the worker's spans merged onto their own process track;
#   4. run with no workers at all under a short join timeout — the
#      in-process fallback must still byte-match, with the dedicated
#      exit code 7 flagging "completed only via fallback";
#   5. rerun the fleet three times under CATAPULT_FIXED_TICKS — the merged
#      trace must be byte-stable across runs (DESIGN.md §16).
#
# Usage: scripts/dist_net_smoke.sh [BUILD_DIR]   (default: build)

set -euo pipefail

BUILD_DIR=${1:-build}
CLI=$BUILD_DIR/examples/catapult_cli
WORKER=$BUILD_DIR/examples/catapult_worker
for bin in "$CLI" "$WORKER"; do
  [ -x "$bin" ] || { echo "missing binary: $bin" >&2; exit 1; }
done

WORK=$(mktemp -d)
WORKER_PIDS=()
cleanup() {
  for pid in "${WORKER_PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

# Waits (bounded) for every spawned worker to exit on its own: a worker
# still alive after the supervisor finished and its dial/handshake budget
# ran out is a hang, and hangs are exactly what this smoke is for.
reap_workers() {
  local deadline=$((SECONDS + 20))
  for pid in "${WORKER_PIDS[@]:-}"; do
    while kill -0 "$pid" 2>/dev/null; do
      if [ "$SECONDS" -ge "$deadline" ]; then
        echo "worker $pid still alive after the run" >&2
        return 1
      fi
      sleep 0.2
    done
  done
  WORKER_PIDS=()
}

MINE_FLAGS=(--gamma 8 --seed 42)

echo "== reference: single-process run"
"$CLI" generate --out "$WORK/db.txt" --graphs 120 --seed 11
"$CLI" mine --db "$WORK/db.txt" --out "$WORK/single.txt" "${MINE_FLAGS[@]}" \
  > /dev/null

echo "== unix-socket fleet with a SIGKILLed worker"
SOCK=unix:$WORK/sup.sock
"$CLI" mine --db "$WORK/db.txt" --out "$WORK/uds.txt" "${MINE_FLAGS[@]}" \
  --processes 2 --listen "$SOCK" > "$WORK/uds.log" 2>&1 &
SUP_PID=$!
"$WORKER" --db "$WORK/db.txt" --connect "$SOCK" --name victim \
  "${MINE_FLAGS[@]}" > /dev/null 2>&1 &
VICTIM_PID=$!
WORKER_PIDS+=("$VICTIM_PID")
# Give the victim a beat to join and start carrying a shard, then kill it
# dead — no signal handler, no goodbye frame. The survivor (started after
# the kill, so the shard loss is guaranteed observable) finishes the run.
# The kill is best-effort chaos: on a fast machine the victim may already
# have finished, and the panel assertion below holds either way.
sleep 0.4
kill -9 "$VICTIM_PID" 2>/dev/null || true
"$WORKER" --db "$WORK/db.txt" --connect "$SOCK" --name survivor \
  "${MINE_FLAGS[@]}" > /dev/null 2>&1 &
WORKER_PIDS+=("$!")
wait "$SUP_PID" || { echo "supervisor failed"; cat "$WORK/uds.log"; exit 1; }
diff "$WORK/single.txt" "$WORK/uds.txt" \
  || { echo "uds panel differs from single-process panel"; exit 1; }
grep -q "remote:" "$WORK/uds.log" \
  || { echo "missing remote summary"; cat "$WORK/uds.log"; exit 1; }
reap_workers || exit 1
echo "   panel byte-identical after worker SIGKILL"

echo "== tcp loopback fleet"
PORT=$((20000 + RANDOM % 20000))
ADDR=tcp:127.0.0.1:$PORT
"$CLI" mine --db "$WORK/db.txt" --out "$WORK/tcp.txt" "${MINE_FLAGS[@]}" \
  --processes 2 --listen "$ADDR" --metrics-out "$WORK/tcp_metrics.json" \
  --trace-out "$WORK/tcp_trace.json" \
  > "$WORK/tcp.log" 2>&1 &
SUP_PID=$!
"$WORKER" --db "$WORK/db.txt" --connect "$ADDR" "${MINE_FLAGS[@]}" \
  > /dev/null 2>&1 &
WORKER_PIDS+=("$!")
wait "$SUP_PID" || { echo "tcp supervisor failed"; cat "$WORK/tcp.log"; exit 1; }
diff "$WORK/single.txt" "$WORK/tcp.txt" \
  || { echo "tcp panel differs from single-process panel"; exit 1; }
python3 -m json.tool "$WORK/tcp_metrics.json" > /dev/null
grep -q '"dist.net.joins"' "$WORK/tcp_metrics.json" \
  || { echo "missing dist.net.* counters"; exit 1; }
# One merged Chrome trace for the whole fleet: valid JSON, with worker
# spans re-rooted on their own "catapult shard N" process tracks under the
# supervisor's shard spans (DESIGN.md §16).
python3 -m json.tool "$WORK/tcp_trace.json" > /dev/null
grep -q '"dist.sharded_phases"' "$WORK/tcp_trace.json" \
  || { echo "missing supervisor span in merged trace"; exit 1; }
grep -q '"catapult shard ' "$WORK/tcp_trace.json" \
  || { echo "missing worker process track in merged trace"; exit 1; }
grep -q '"worker.shard-' "$WORK/tcp_trace.json" \
  || { echo "missing imported worker spans in merged trace"; exit 1; }
reap_workers || exit 1
echo "   panel byte-identical over tcp loopback, merged trace valid"

echo "== fleet never forms: in-process fallback with exit code 7"
set +e
timeout 120 "$CLI" mine --db "$WORK/db.txt" --out "$WORK/lost.txt" \
  "${MINE_FLAGS[@]}" --processes 2 --listen "unix:$WORK/lost.sock" \
  --join-timeout-ms 500 > "$WORK/lost.log" 2>&1
LOST_EXIT=$?
set -e
[ "$LOST_EXIT" -eq 7 ] \
  || { echo "expected exit 7, got $LOST_EXIT"; cat "$WORK/lost.log"; exit 1; }
diff "$WORK/single.txt" "$WORK/lost.txt" \
  || { echo "fallback panel differs"; exit 1; }
echo "   fallback byte-identical, exit code 7"

echo "== fixed-tick fleet: merged trace byte-stable across runs"
# Under CATAPULT_FIXED_TICKS every process draws timestamps from the same
# deterministic counter, so identical fleet runs must merge to
# byte-identical trace files. A single worker carrying both shards keeps
# the member interleaving deterministic too.
for run in 1 2 3; do
  FSOCK=unix:$WORK/fixed_$run.sock
  CATAPULT_FIXED_TICKS=1 "$CLI" mine --db "$WORK/db.txt" \
    --out "$WORK/fixed_$run.txt" "${MINE_FLAGS[@]}" --processes 2 \
    --listen "$FSOCK" --trace-out "$WORK/fixed_trace_$run.json" \
    > "$WORK/fixed_$run.log" 2>&1 &
  SUP_PID=$!
  CATAPULT_FIXED_TICKS=1 "$WORKER" --db "$WORK/db.txt" --connect "$FSOCK" \
    "${MINE_FLAGS[@]}" > /dev/null 2>&1 &
  WORKER_PIDS+=("$!")
  wait "$SUP_PID" \
    || { echo "fixed-tick supervisor failed"; cat "$WORK/fixed_$run.log"; exit 1; }
  reap_workers || exit 1
done
for run in 2 3; do
  diff "$WORK/fixed_trace_1.json" "$WORK/fixed_trace_$run.json" \
    || { echo "merged trace not byte-stable under fixed ticks"; exit 1; }
done
diff "$WORK/single.txt" "$WORK/fixed_1.txt" \
  || { echo "fixed-tick panel differs"; exit 1; }
echo "   trace byte-identical across fixed-tick reruns"

echo "dist_net_smoke: all checks passed"
