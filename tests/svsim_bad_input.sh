#!/bin/sh
# svsim must reject bad input with exactly one stderr line naming the
# offending key and exit status 2: no abort, no signal, and no run.
#
#   usage: svsim_bad_input.sh PATH/TO/svsim
svsim=$1
status=0
errfile=$(mktemp)
trap 'rm -f "$errfile"' EXIT

check() {
  key=$1
  shift
  out=$("$svsim" "$@" 2>"$errfile")
  rc=$?
  err=$(cat "$errfile")
  lines=$(printf '%s\n' "$err" | wc -l)
  if [ "$rc" -ne 2 ] || [ -n "$out" ] || [ "$lines" -ne 1 ] ||
     ! printf '%s' "$err" | grep -q "$key"; then
    echo "FAIL: svsim $*: exit $rc, stdout '$out', stderr '$err'"
    status=1
  else
    echo "ok: svsim $* -> $err"
  fi
}

check count msg count=abc
check nodes msg nodes=1
check approach xfer approach=9
exit $status
