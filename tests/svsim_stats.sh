#!/bin/sh
# svsim stats=1 prints the machine statistics after the run's report line:
# "key = value" lines under a "--- machine statistics ---" header, or, with
# stats_format=json, one JSON object with one "key": value member per line.
# Both formats give the same value for a key.
#
#   usage: svsim_stats.sh PATH/TO/svsim
svsim=$1
status=0
fail() {
  echo "FAIL: $*"
  status=1
}

text=$("$svsim" msg stats=1) || fail "svsim msg stats=1 exited $?"
json=$("$svsim" msg stats=1 stats_format=json) ||
  fail "svsim msg stats=1 stats_format=json exited $?"

printf '%s\n' "$text" | grep -qx -- '--- machine statistics ---' ||
  fail "stats=1 prints no '--- machine statistics ---' header"

# The object: '{', members, '}', and nothing after it. Every member but
# the last ends in a comma.
body=$(printf '%s\n' "$json" | sed 1d)
members=$(printf '%s\n' "$body" | sed '1d;$d')
member='^  "[^"]*": ([-+.0-9eE]+|null)'
[ "$(printf '%s\n' "$body" | head -n 1)" = "{" ] &&
  [ "$(printf '%s\n' "$body" | tail -n 1)" = "}" ] &&
  [ -n "$members" ] &&
  ! printf '%s\n' "$members" | sed '$d' | grep -Evq "$member,\$" &&
  printf '%s\n' "$members" | tail -n 1 | grep -Eq "$member\$" ||
  fail "stats_format=json does not print one JSON object"

key=n0.bus.transactions
from_text=$(printf '%s\n' "$text" | sed -n "s/^$key = //p")
from_json=$(printf '%s\n' "$json" | sed -n "s/^  \"$key\": \([^,]*\),*\$/\1/p")
if [ -z "$from_text" ] || [ "$from_text" != "$from_json" ]; then
  fail "$key reads '$from_text' in text and '$from_json' in JSON"
else
  echo "ok: $key = $from_text in both formats"
fi
exit $status
