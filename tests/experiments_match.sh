#!/bin/sh
# svexp must regenerate every simulated table of EXPERIMENTS.md exactly as
# committed, and a copy with one cell edited must not survive it.
#
#   usage: experiments_match.sh PATH/TO/svexp PATH/TO/EXPERIMENTS.md
svexp=$1
doc=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

if ! "$svexp" "$doc" >"$dir/out.md"; then
  echo "FAIL: svexp $doc failed"
  exit 1
fi
if ! diff -u "$doc" "$dir/out.md"; then
  echo "FAIL: the tables above differ from what svexp regenerates"
  exit 1
fi

# Replace the last cell of the first generated table's first row.
awk '/^-->$/ && !row { row = NR + 3 }
     NR == row { sub(/\| [^|]* \|$/, "| 0 |") } { print }' "$doc" \
  >"$dir/edited.md"
if cmp -s "$doc" "$dir/edited.md"; then
  echo "FAIL: found no cell to edit"
  exit 1
fi
"$svexp" "$dir/edited.md" >"$dir/edited_out.md" || exit 1
if cmp -s "$dir/edited.md" "$dir/edited_out.md"; then
  echo "FAIL: svexp's output kept the edited cell"
  exit 1
fi
echo "ok: every table regenerates as committed, and an edited cell is caught"
