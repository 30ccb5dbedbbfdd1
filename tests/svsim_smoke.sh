#!/bin/sh
# Every workload `svsim --help` lists must run to completion at its
# declared defaults (exit 0) with the given threads= value. xfer drives a
# single kernel, so at threads>0 it must refuse with exit 2 instead.
#
#   usage: svsim_smoke.sh PATH/TO/svsim THREADS
svsim=$1
threads=$2
status=0
workloads=$("$svsim" --help | sed -n 's/^  \([a-z.]*\): .*/\1/p')
if [ -z "$workloads" ]; then
  echo "FAIL: svsim --help lists no workloads"
  exit 1
fi
for w in $workloads; do
  want=0
  if [ "$w" = xfer ] && [ "$threads" -gt 0 ]; then
    want=2
  fi
  out=$("$svsim" "$w" threads="$threads" 2>&1)
  rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL: svsim $w threads=$threads: exit $rc (want $want): $out"
    status=1
  else
    echo "ok: svsim $w threads=$threads -> $out"
  fi
done
exit $status
