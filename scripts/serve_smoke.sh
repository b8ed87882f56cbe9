#!/bin/sh
# Smoke the serve daemon over a real unix socket: N concurrent clients
# drive the same conversation through `ppd connect`, every response
# must be valid JSON carrying the id of its request, the flowback,
# replay and fsck answers must be byte-identical to the one-shot CLI,
# and SIGTERM must shut the daemon
# down cleanly — socket removed, no orphan process. CI runs this so
# the transport layer (accept loop, per-connection threads, signal
# path) stays exercised, not just the in-process dispatcher.
set -eu

PPD=${PPD:-_build/default/bin/ppd_cli.exe}
CLIENTS=${CLIENTS:-8}

dir=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

"$PPD" example fig61 >"$dir/fig61.mpl"
"$PPD" log "$dir/fig61.mpl" --save "$dir/fig61.seg" >/dev/null

# the answers the daemon must reproduce byte for byte
"$PPD" flowback "$dir/fig61.mpl" --load "$dir/fig61.seg" --depth 2 >"$dir/flowback.one"
"$PPD" replay "$dir/fig61.mpl" --load "$dir/fig61.seg" >"$dir/replay.one"
"$PPD" fsck "$dir/fig61.seg" >"$dir/fsck.one"

sock="$dir/ppd.sock"
"$PPD" serve --socket "$sock" -j 2 2>"$dir/daemon.log" &
daemon_pid=$!

# wait for the socket to appear
i=0
while [ ! -S "$sock" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "serve-smoke: daemon never bound $sock" >&2
    cat "$dir/daemon.log" >&2
    exit 1
  fi
  sleep 0.1
done

# N concurrent clients, each a full conversation over ppd connect;
# client 1 also asks for the fsck report.
# (wait on their pids specifically: a bare `wait` would also wait on
# the daemon, which only exits on SIGTERM)
client_pids=""
n=0
while [ "$n" -lt "$CLIENTS" ]; do
  n=$((n + 1))
  fsck_req=""
  [ "$n" -eq 1 ] && fsck_req="{\"id\":6,\"method\":\"fsck\",\"params\":{\"log\":\"$dir/fig61.seg\"}}"
  {
    printf '%s\n' \
      "{\"id\":1,\"method\":\"ping\"}" \
      "{\"id\":2,\"method\":\"open\",\"params\":{\"log\":\"$dir/fig61.seg\",\"program\":\"$dir/fig61.mpl\"}}" \
      "{\"id\":3,\"method\":\"flowback\",\"params\":{\"handle\":1,\"depth\":2}}" \
      "{\"id\":4,\"method\":\"replay\",\"params\":{\"handle\":1}}" \
      "{\"id\":5,\"method\":\"close\",\"params\":{\"handle\":1}}" \
      ${fsck_req:+"$fsck_req"} |
      "$PPD" connect --socket "$sock" >"$dir/client$n.out"
  } &
  client_pids="$client_pids $!"
done
for pid in $client_pids; do
  wait "$pid"
done

# every response line from every client is valid JSON
cat "$dir"/client*.out |
  python3 -c 'import json,sys; [json.loads(l) for l in sys.stdin]'

# every client: id-matched responses, none an error, the flowback/replay
# outputs byte-match the one-shot CLI, and client 1's fsck result is
# exactly the `ppd fsck` output minus its newline
n=0
while [ "$n" -lt "$CLIENTS" ]; do
  n=$((n + 1))
  python3 - "$dir/client$n.out" "$dir/flowback.one" "$dir/replay.one" "$dir/fsck.one" <<'EOF'
import json, sys
out, flow, rep, fsck = sys.argv[1:5]
raw = open(out).read().splitlines()
lines = [json.loads(l) for l in raw]
ids = [1, 2, 3, 4, 5] + ([6] if out.endswith("/client1.out") else [])
assert [r["id"] for r in lines] == ids, f"{out}: ids {[r['id'] for r in lines]}"
for r in lines:
    assert "error" not in r, f"{out}: unexpected error response {r}"
assert lines[2]["result"]["output"] == open(flow).read(), f"{out}: flowback differs"
assert lines[3]["result"]["output"] == open(rep).read(), f"{out}: replay differs"
if 6 in ids:
    prefix, cli = '{"id":6,"result":', open(fsck).read()
    assert raw[5].startswith(prefix) and raw[5].endswith("}"), f"{out}: fsck line {raw[5]}"
    assert cli.endswith("\n") and raw[5][len(prefix):-1] == cli[:-1], f"{out}: fsck differs from the CLI"
EOF
done
echo "serve-smoke: $CLIENTS concurrent clients, all responses valid JSON, id-matched and byte-identical"

# clean shutdown on SIGTERM: process exits, socket file removed
kill -TERM "$daemon_pid"
i=0
while kill -0 "$daemon_pid" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "serve-smoke: daemon ignored SIGTERM" >&2
    exit 1
  fi
  sleep 0.1
done
daemon_pid=""
if [ -e "$sock" ]; then
  echo "serve-smoke: daemon leaked its socket file $sock" >&2
  exit 1
fi
grep -q "stopped (pool drained, socket removed)" "$dir/daemon.log" || {
  echo "serve-smoke: daemon did not report a clean stop" >&2
  cat "$dir/daemon.log" >&2
  exit 1
}

echo "serve-smoke: clean SIGTERM shutdown, no leaked socket"
