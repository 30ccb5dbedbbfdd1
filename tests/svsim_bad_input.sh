#!/bin/sh
# svsim, svexplore and svtrace must reject bad input with exactly one
# stderr line naming the offending key or flag and exit status 2: no
# abort, no signal, no hang, and no run. A trace= file that cannot be
# opened fails before the run, too. A run that fails says why, in one
# line, with its own exit status.
#
#   usage: svsim_bad_input.sh PATH/TO/svsim PATH/TO/svexplore PATH/TO/svtrace
svsim=$1
svexplore=$2
svtrace=$3
corpus=$(dirname "$0")/ckpt/reliable_ring.svck
status=0
dir=$(mktemp -d)
errfile=$dir/stderr
trap 'rm -rf "$dir"' EXIT

# fails RC PATTERN TOOL ARGS...: TOOL ARGS must exit RC with nothing on
# stdout and one stderr line, matching PATTERN.
fails() {
  want=$1
  pattern=$2
  tool=$3
  shift 3
  out=$("$tool" "$@" 2>"$errfile")
  rc=$?
  err=$(cat "$errfile")
  lines=$(printf '%s\n' "$err" | wc -l)
  if [ "$rc" -ne "$want" ] || [ -n "$out" ] || [ "$lines" -ne 1 ] ||
     ! printf '%s' "$err" | grep -q "$pattern"; then
    echo "FAIL: $(basename "$tool") $*: exit $rc, stdout '$out', stderr '$err'"
    status=1
  else
    echo "ok: $(basename "$tool") $* -> $err"
  fi
}

# check PATTERN TOOL ARGS...: bad input, rejected as above with exit 2.
check() {
  fails 2 "$@"
}

check count "$svsim" msg count=abc
check nodes "$svsim" msg nodes=1
check approach "$svsim" xfer approach=9
check "'fault.drop_rte'.*'fault.drop_rate'" \
  "$svsim" reliable fault.drop_rte=0.5
check words "$svsim" scoma words=0
check bytes "$svsim" msg bytes=100000
check count "$svsim" msg count=65
check count "$svsim" express count=129
check "nodes.*8-bit" "$svsim" express nodes=257 count=1 net=ideal
check bytes "$svsim" dma bytes=0
check bytes "$svsim" dma bytes=100
check bytes "$svsim" xfer bytes=0
check bytes "$svsim" reliable bytes=100000
check net "$svsim" msg net=idael
check app.shm "$svsim" app.stencil app.shm=scomaa
check "needs scoma=1" "$svsim" scoma scoma=0
check "needs scoma=1" "$svsim" app.stencil transport=shm app.shm=scoma scoma=0
check stats_format "$svsim" msg stats_format=jsno
check threads "$svsim" xfer threads=2
check "trace: cannot open" "$svsim" msg trace="$dir/missing/t.json"
check nodes "$svsim" msg nodes=1 trace="$dir/t.json"
if [ -e "$dir/t.json" ]; then
  echo "FAIL: svsim msg nodes=1 trace=... left a trace file behind"
  status=1
fi
check "'trace_stream'" "$svsim" msg trace_stream="$dir/t.json"
check "'trace_buf'" "$svsim" msg trace_buf=16
check fault.drop_script "$svsim" msg fault.drop_script=abc
check fault.drop_script "$svsim" msg fault.drop_script=-1
check fault.drop_script "$svsim" reliable threads=2 fault.drop_script=3,9
check fault.drop_script "$svsim" reliable threads=2 fault.drop_script=
check "'max_drop'.*'max_drops'" "$svexplore" max_drop=1
check "'fault_seed'.*'fault.seed'" "$svexplore" fault_seed=1
check "'at'" "$svexplore" at=10499999
check "'trace'" "$svexplore" trace=t.json
check fault.drop_script "$svexplore" fault.drop_script=3
check threads "$svexplore" threads=2

# With --snapshot the snapshot is the whole configuration, and it must
# have been written with an empty fault.drop_script=.
check "'nodes'" "$svexplore" --snapshot="$corpus" nodes=4
check "'count'" "$svexplore" --snapshot="$corpus" count=3 max_drops=0
"$svsim" reliable count=4 ckpt.at=2000000 ckpt.out="$dir/plain.svck" \
  >/dev/null
"$svsim" reliable count=4 fault.drop_script=100000 ckpt.at=2000000 \
  ckpt.out="$dir/scripted.svck" >/dev/null
check fault.drop_script "$svexplore" --snapshot="$dir/plain.svck"
check fault.drop_script "$svexplore" --snapshot="$dir/scripted.svck"

# svtrace checks its one key as svsim does, before reading the trace.
"$svsim" msg count=4 trace="$dir/ok.json" >/dev/null
check "usage: svtrace" "$svtrace"
check top "$svtrace" "$dir/ok.json" top=abc
check "'tpo'.*'top'" "$svtrace" "$dir/ok.json" tpo=3
fails 1 "cannot open" "$svtrace" "$dir/missing.json"
printf '{"traceEvents":[' >"$dir/truncated.json"
fails 1 "json: unexpected end of input at offset 16" \
  "$svtrace" "$dir/truncated.json"

# Runs that fail: a run past its deadline exits 1, and an exploration
# whose run budget ends before its bound is covered is inconclusive, 3.
fails 1 "svsim: timed out" \
  "$svsim" reliable nodes=4 fault.drop_rate=0.9 deadline_ms=2
out=$("$svexplore" --snapshot="$corpus" max_drops=1 max_runs=1 2>&1)
rc=$?
if [ "$rc" -ne 3 ] || ! printf '%s\n' "$out" | grep -q '^INCONCLUSIVE'; then
  echo "FAIL: svexplore max_runs=1: exit $rc, output '$out'"
  status=1
else
  echo "ok: svexplore max_runs=1 -> exit 3, $(printf '%s\n' "$out" | tail -n 1)"
fi
exit $status
