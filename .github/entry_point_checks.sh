#!/usr/bin/env bash
# Checks of the installed `cubicthue` console script, which no test runs: three
# pinned outputs (the second prints values beyond float range from exact
# fractions, the third is a once-twisted cell's crossover), the chain's failure
# names over two scans, the exit code 2 and message of the refused cell (0, 0),
# and every command line of the README's "Command-line usage" block.
# Run from the repository root after `pip install -e .`.
set -euo pipefail

out="$(cubicthue --format csv form 5 1 0)"
want="$(printf 'n,s,t,A,B,degenerate\n5,1,0,-4,-7,false')"
[ "$out" = "$want" ] || { echo "unexpected output: $out"; exit 1; }
out="$(cubicthue --format csv scan --n 1e400 --smax 1 --ybound 10 | cut -d, -f2,3,9,10 | tail -n 1)"
want="1,1,2.8276789922551456e+405,4.0671798891820596e+347"
[ "$out" = "$want" ] || { echo "unexpected output: $out"; exit 1; }
out="$(cubicthue --format csv bound 1e64 1 0 | cut -d, -f7,8,9 | tail -n 1)"
want="7.238858220173173e+67,true,"
[ "$out" = "$want" ] || { echo "unexpected output: $out"; exit 1; }
# the chain names only the three failures a cell can have, here with their counts
out="$(for grid in 0:1 1e60:1e64:log10; do
  cubicthue --format csv scan --n "$grid" --smax 2 --ybound 10 | tail -n +2 | cut -d, -f11
done | LC_ALL=C sort | uniq -c | sed 's/^ *//')"
want="$(printf '55 \n15 R - v_bar > (3/4) log(n)/n\n16 n >= 1\n26 w_bar absorption')"
[ "$out" = "$want" ] || { echo "unexpected chain failures: $out"; exit 1; }
code=0
err="$(cubicthue bound 5 0 0 2>&1 > /dev/null)" || code=$?
[ "$code" = 2 ] && [ "$err" = "error: (s, t) = (0, 0) gives the reducible form (x - y)^3" ] \
  || { echo "unexpected exit $code for bound 5 0 0: $err"; exit 1; }
usage="$(sed -n '/^## Command-line usage/,/^## /p' README.md | sed -n '/^```/,/^```/p' | grep '^cubicthue ')" \
  || { echo "no cubicthue lines in the README's usage block"; exit 1; }
while read -r line; do
  echo "+ $line"
  bash -c "$line" > /dev/null < /dev/null || { echo "README usage line failed: $line"; exit 1; }
done <<< "$usage"
