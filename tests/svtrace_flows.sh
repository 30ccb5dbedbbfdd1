#!/bin/sh
# svtrace must read the traces svsim writes: a block transfer on one
# kernel and an 8-node run at threads=2 each exit 0 with svtrace's header
# line. And it must count every distinct flow id a trace holds. NIU flow
# ids set bit 62, beyond the integers a double holds exactly, so the
# writers quote them (a reader that parsed them through double would merge
# them). A 16-node app.stencil run writes 720 distinct ids.
#
#   usage: svtrace_flows.sh PATH/TO/svsim PATH/TO/svtrace
svsim=$1
svtrace=$2
trace=$(mktemp)
trap 'rm -f "$trace"' EXIT

for run in "xfer approach=3 bytes=65536" "msg nodes=8 net=ideal threads=2"; do
  # $run is split into its words on purpose.
  "$svsim" $run trace="$trace" >/dev/null || exit 1
  out=$("$svtrace" "$trace") || {
    echo "FAIL: svtrace on svsim $run: exit $?"
    exit 1
  }
  header=$(printf '%s\n' "$out" | head -n 1)
  case $header in
    "$trace: "*" us of simulated time, "*" spans, "*)
      echo "ok: svsim $run -> $header" ;;
    *)
      echo "FAIL: svsim $run: svtrace header '$header'"
      exit 1 ;;
  esac
done

"$svsim" app.stencil nodes=16 trace="$trace" >/dev/null || exit 1
ids=$(grep -o '"flow":"[0-9]*"' "$trace" | sort -u | wc -l)
flows=$("$svtrace" "$trace" | sed -n 's/^flows: \([0-9]*\) messages.*/\1/p')
echo "trace holds $ids distinct flow ids; svtrace reports '$flows' flows"
[ "$ids" -eq 720 ] && [ "$flows" = "$ids" ]
