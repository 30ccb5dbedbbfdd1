#!/bin/sh
# svsim's trace= file must not depend on how the machine is partitioned:
# every epoch barrier drains every domain's tracer into the one writer in
# one canonical order, so threads=0, 1, 2 and 4 write the same bytes, and
# no event is dropped.
#
#   usage: svsim_trace_threads.sh PATH/TO/svsim
svsim=$1
status=0
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

for run in "msg nodes=8" "app.stencil nodes=16"; do
  for threads in 0 1 2 4; do
    # $run is split into its words on purpose.
    if ! "$svsim" $run net=ideal threads=$threads \
         trace="$dir/t$threads.json" >"$dir/out"; then
      echo "FAIL: svsim $run threads=$threads exited nonzero"
      status=1
    fi
  done
  if ! grep -q '"dropped":0}' "$dir/t0.json"; then
    echo "FAIL: svsim $run dropped events: $(tail -n 1 "$dir/t0.json")"
    status=1
  fi
  for threads in 1 2 4; do
    if cmp "$dir/t0.json" "$dir/t$threads.json"; then
      echo "ok: $run threads=$threads writes the threads=0 trace"
    else
      status=1
    fi
  done
done
exit $status
