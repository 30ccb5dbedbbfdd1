#!/bin/sh
# svtrace must count every distinct flow id a trace holds. NIU flow ids set
# bit 62, beyond the integers a double holds exactly, so the writers quote
# them (a reader that parsed them through double would merge them). A
# 16-node app.stencil run writes 720 distinct ids.
#
#   usage: svtrace_flows.sh PATH/TO/svsim PATH/TO/svtrace
svsim=$1
svtrace=$2
trace=$(mktemp)
trap 'rm -f "$trace"' EXIT

"$svsim" app.stencil nodes=16 trace="$trace" >/dev/null || exit 1
ids=$(grep -o '"flow":"[0-9]*"' "$trace" | sort -u | wc -l)
flows=$("$svtrace" "$trace" | sed -n 's/^flows: \([0-9]*\) messages.*/\1/p')
echo "trace holds $ids distinct flow ids; svtrace reports '$flows' flows"
[ "$ids" -eq 720 ] && [ "$flows" = "$ids" ]
