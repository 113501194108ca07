#!/usr/bin/env bash
# Two-process TCP cluster smoke: starts rank 0 on a port the kernel picks
# and reads that port from its output, then starts rank 1 against it.
# Rank 0 runs `:netrun treereduce2 DEPTH SEED` from a command file; the
# script checks the distributed value matched the in-process sequential
# oracle (the same number a single-process run computes) and that real
# frames crossed the socket.
#
# usage: net_launch.sh path/to/motifsh [DEPTH] [SEED]
set -u

shell=${1:?usage: net_launch.sh MOTIFSH [DEPTH] [SEED]}
depth=${2:-6}
seed=${3:-42}

workdir=$(mktemp -d)
leader=""
trap '[ -n "$leader" ] && kill "$leader" 2>/dev/null; rm -rf "$workdir"' EXIT

printf ':netrun treereduce2 %s %s\n:stats\n:quit\n' "$depth" "$seed" \
    > "$workdir/commands"
"$shell" --rank 0 --peers 127.0.0.1:0,127.0.0.1:0 < "$workdir/commands" \
    > "$workdir/rank0.log" 2>&1 &
leader=$!

# Rank 0 prints its bound address before its start() waits for rank 1.
port=""
for _ in $(seq 100); do  # up to 10 s
  port=$(sed -n 's/^cluster: rank 0 listening on .*:\([0-9][0-9]*\)$/\1/p' \
             "$workdir/rank0.log")
  [ -n "$port" ] && break
  kill -0 "$leader" 2>/dev/null || break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "net_launch: rank 0 printed no listen address" >&2
  sed 's/^/  rank0: /' "$workdir/rank0.log" >&2
  exit 1
fi

"$shell" --rank 1 --peers "127.0.0.1:${port},127.0.0.1:0" < /dev/null \
    > "$workdir/rank1.log" 2>&1 &
follower=$!
wait "$leader"
rc=$?
leader=""
wait "$follower"
frc=$?

out=$(cat "$workdir/rank0.log")
echo "$out"
if [ "$rc" -ne 0 ] || [ "$frc" -ne 0 ]; then
  echo "net_launch: cluster failed (rank0 rc=$rc, rank1 rc=$frc)" >&2
  sed 's/^/  rank1: /' "$workdir/rank1.log" >&2
  exit 1
fi
case "$out" in
  *"result match: yes"*) ;;
  *) echo "net_launch: distributed result did not match the oracle" >&2
     exit 1 ;;
esac
case "$out" in
  *"net: tx_frames="*) ;;
  *) echo "net_launch: no net counters in :stats output" >&2
     exit 1 ;;
esac
echo "net_launch: OK (depth=$depth seed=$seed)"
