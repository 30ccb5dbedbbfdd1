#!/bin/sh
# The EXPERIMENTS.md Ext-Q walkthrough, end to end: svsim writes periodic
# `reliable` snapshots with fault.drop_script=, svsim --restore verifies
# one, svexplore --snapshot explores from it, and svsim restores the
# committed corpus.
#
#   usage: explorer_walkthrough.sh PATH/TO/svsim PATH/TO/svexplore
svsim=$1
svexplore=$2
corpus=$(dirname "$0")/ckpt/reliable_ring.svck
status=0
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# expect PATTERN CMD...: CMD must exit 0 and print a line matching PATTERN.
expect() {
  pattern=$1
  shift
  out=$("$@" 2>&1)
  rc=$?
  if [ "$rc" -ne 0 ] || ! printf '%s\n' "$out" | grep -q "$pattern"; then
    echo "FAIL: $*: exit $rc: $out"
    status=1
  else
    echo "ok: $* -> $(printf '%s\n' "$out" | grep "$pattern")"
  fi
}

snap=$dir/ring.30999999.svck
expect "tick 30999999, 33 chunks" "$svsim" reliable count=30 \
  fault.drop_script= --checkpoint-every=10000000 --checkpoint-out="$dir/ring"
expect "33 chunks verified" "$svsim" --restore="$snap"
expect "^PROVEN" "$svexplore" --snapshot="$snap" max_drops=1
expect "tick 10499999, 33 chunks verified" "$svsim" --restore="$corpus"
exit $status
