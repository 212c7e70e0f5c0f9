#!/usr/bin/env bash
# Fleet smoke test, two lanes over real TCP:
#
#   lane 1 (static):  a leaf herosign-serve and a remote-only front end
#       proxying to it. Drives 200 signs through the front, verifies every
#       signature, and checks both processes drain cleanly on SIGTERM.
#
#   lane 2 (chaos + dynamic membership): a front end with -fleet-dynamic
#       and three leaves that JOIN it over the authenticated membership
#       protocol (shared -fleet-secret; one leaf slowed by the -chaos
#       injector). One leaf is crashed (SIGKILL) mid-lane: the front must
#       eject it, keep serving signs via failover, and retire the member
#       when its lease expires. Another leaf is SIGTERMed and must LEAVE
#       cleanly before draining. Unsigned join attempts must bounce 401.
#
# Exits non-zero on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."

LEAF_PORT="${LEAF_PORT:-18081}"
FRONT_PORT="${FRONT_PORT:-18080}"
CHAOS_FRONT_PORT="${CHAOS_FRONT_PORT:-18090}"
N="${N:-200}"

workdir="$(mktemp -d)"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building =="
go build -o "$workdir/herosign" ./cmd/herosign
go build -o "$workdir/herosign-serve" ./cmd/herosign-serve
go build -o "$workdir/smoke-client" ./scripts/fleet-smoke-client

echo "== shared master key =="
"$workdir/herosign" keygen -set 128f -out "$workdir/key.hex"

# Authed leaves answer /v1/stats with 401 to the unsigned probe — that
# still proves the listener is up, so both 200 and 401 count as ready.
wait_ready() {
    local url="$1" name="$2" code
    for _ in $(seq 1 100); do
        code="$(curl -s -o /dev/null -w '%{http_code}' "$url/v1/stats" 2>/dev/null || true)"
        case "$code" in
        200 | 401)
            echo "$name ready at $url (HTTP $code)"
            return 0
            ;;
        esac
        sleep 0.2
    done
    echo "$name did not become ready at $url" >&2
    return 1
}

# ---------------------------------------------------------------- lane 1
echo "== lane 1: static fleet =="
echo "== leaf on :$LEAF_PORT =="
"$workdir/herosign-serve" -addr "127.0.0.1:$LEAF_PORT" \
    -key "$workdir/key.hex" -queue-limit -1 &
leaf_pid=$!
pids="$pids $leaf_pid"
wait_ready "http://127.0.0.1:$LEAF_PORT" leaf

echo "== remote-only front on :$FRONT_PORT =="
"$workdir/herosign-serve" -addr "127.0.0.1:$FRONT_PORT" \
    -gpus "" -remote "http://127.0.0.1:$LEAF_PORT" \
    -key "$workdir/key.hex" -queue-limit -1 \
    -replica-of "http://127.0.0.1:$LEAF_PORT" &
front_pid=$!
pids="$pids $front_pid"
wait_ready "http://127.0.0.1:$FRONT_PORT" front

echo "== $N signs through the front =="
"$workdir/smoke-client" -url "http://127.0.0.1:$FRONT_PORT" -n "$N"

echo "== front-end stats =="
curl -sf "http://127.0.0.1:$FRONT_PORT/v1/stats" | tr ',' '\n' | grep -E '"(state|url|primary_sends|total_messages)"' || true

echo "== graceful drain (SIGTERM) =="
kill -TERM "$front_pid"
if ! wait "$front_pid"; then
    echo "front exited non-zero on SIGTERM" >&2
    exit 1
fi
kill -TERM "$leaf_pid"
if ! wait "$leaf_pid"; then
    echo "leaf exited non-zero on SIGTERM" >&2
    exit 1
fi

# ---------------------------------------------------------------- lane 2
echo
echo "== lane 2: chaos + dynamic membership =="
printf 'smoke-fleet-secret' >"$workdir/secret"
CF="http://127.0.0.1:$CHAOS_FRONT_PORT"

front_stats() { curl -sf "$CF/v1/stats" 2>/dev/null || true; }

wait_stats() {
    local pattern="$1" what="$2"
    for _ in $(seq 1 150); do
        if front_stats | grep -q "$pattern"; then
            echo "front observed: $what"
            return 0
        fi
        sleep 0.2
    done
    echo "front never observed: $what" >&2
    front_stats >&2
    return 1
}

echo "== dynamic front on :$CHAOS_FRONT_PORT =="
"$workdir/herosign-serve" -addr "127.0.0.1:$CHAOS_FRONT_PORT" \
    -gpus "" -fleet-dynamic -fleet-secret "@$workdir/secret" \
    -key "$workdir/key.hex" -queue-limit -1 &
cfront_pid=$!
pids="$pids $cfront_pid"
wait_ready "$CF" chaos-front

echo "== unsigned join must bounce =="
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$CF/v1/fleet/join" \
    -H 'Content-Type: application/json' -d '{"url":"http://127.0.0.1:1"}')"
if [ "$code" != "401" ]; then
    echo "unsigned join got HTTP $code, want 401" >&2
    exit 1
fi
echo "unsigned join rejected (HTTP 401)"

echo "== 3 leaves join (leaf 3 slowed by the fault injector) =="
cleaf_pids=()
for i in 1 2 3; do
    port=$((CHAOS_FRONT_PORT + i))
    extra=()
    if [ "$i" = 3 ]; then
        extra=(-chaos "mode=latency;path=/v1/sign;latency=25ms;jitter=10ms")
    fi
    "$workdir/herosign-serve" -addr "127.0.0.1:$port" \
        -key "$workdir/key.hex" -queue-limit -1 \
        -fleet-secret "@$workdir/secret" \
        -join "$CF" -advertise "http://127.0.0.1:$port" \
        "${extra[@]}" &
    cleaf_pids[$i]=$!
    pids="$pids ${cleaf_pids[$i]}"
    wait_ready "http://127.0.0.1:$port" "leaf$i"
done
for i in 1 2 3; do
    wait_stats "127.0.0.1:$((CHAOS_FRONT_PORT + i))" "leaf$i admitted"
done
wait_stats '"joined"' "join events in the membership log"

echo "== $N signs through the dynamic front =="
"$workdir/smoke-client" -url "$CF" -n "$N"

echo "== crash leaf 2 (SIGKILL, no leave) =="
kill -9 "${cleaf_pids[2]}"
wait "${cleaf_pids[2]}" 2>/dev/null || true
wait_stats '"ejected"' "ejection of the crashed leaf"

echo "== $N signs with a dead member (failover) =="
"$workdir/smoke-client" -url "$CF" -n "$N"
wait_stats '"lease-expired"' "lease-expired retirement of the crashed leaf"

echo "== leaf 3 departs cleanly (SIGTERM -> leave, then drain) =="
kill -TERM "${cleaf_pids[3]}"
if ! wait "${cleaf_pids[3]}"; then
    echo "leaf3 exited non-zero on SIGTERM" >&2
    exit 1
fi
wait_stats '"left"' "clean leave of leaf3"

echo "== signs on the single surviving leaf =="
"$workdir/smoke-client" -url "$CF" -n 50

echo "== membership log =="
front_stats | tr ',' '\n' | grep -E '"(type|url|auth_rejected)"' || true

echo "== graceful drain (SIGTERM) =="
kill -TERM "$cfront_pid"
if ! wait "$cfront_pid"; then
    echo "chaos front exited non-zero on SIGTERM" >&2
    exit 1
fi
kill -TERM "${cleaf_pids[1]}"
if ! wait "${cleaf_pids[1]}"; then
    echo "leaf1 exited non-zero on SIGTERM" >&2
    exit 1
fi
pids=""

echo "fleet smoke: OK"
