#!/usr/bin/env bash
# CLI `resistance` must run under the invocation's Runtime, like `solve`:
#
#   1. its rounds= line under --routing broadcast must be the `solve` rounds
#      for the same pair plus the one broadcast of the two potentials, and
#      must differ from its rounds under --routing charged, so the flag
#      reached the command;
#   2. its broadcast --trace must charge Broadcast Congested Clique
#      primitives (bcast_*), not unicast ones, and under both routings the
#      trace's total_rounds must equal the rounds= line: the potentials'
#      broadcast is charged, not added;
#   3. the Runtime has no thread count (every command computes on the
#      calling thread), so `--threads 4 solve ...` and
#      `solve ... --threads 4` must exit 2 with the usage line.
#
# Registered by tests/CMakeLists.txt as `cli_resistance_routing`; argument 1
# is the lapclique_cli binary path.
set -u

BIN="${1:?usage: cli_resistance_routing_test.sh <lapclique_cli binary>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "cli_resistance_routing_test: $*" >&2
  exit 1
}

rounds_of() {
  sed -n 's/^rounds=\([0-9][0-9]*\).*/\1/p' "$1" | head -n 1
}

trace_rounds_of() {
  sed -n 's/^ *"total_rounds": *\([0-9][0-9]*\).*/\1/p' "$1" | head -n 1
}

# An 8-vertex graph: two 4-cycles sharing vertex 0.
printf '8 9\n0 1\n1 2\n2 3\n3 0\n0 4\n4 5\n5 6\n6 7\n7 0\n' >"$TMP/g.el"

"$BIN" --routing broadcast --trace "$TMP/t.json" resistance "$TMP/g.el" 0 5 \
  >"$TMP/r.out" 2>"$TMP/r.err" || fail "resistance failed: $(cat "$TMP/r.err")"
grep -q '"bcast_' "$TMP/t.json" ||
  fail "broadcast trace charges no bcast_* primitive"

"$BIN" --routing broadcast solve "$TMP/g.el" 0 5 \
  >"$TMP/s.out" 2>"$TMP/s.err" || fail "solve failed: $(cat "$TMP/s.err")"
"$BIN" --routing charged --trace "$TMP/c.json" resistance "$TMP/g.el" 0 5 \
  >"$TMP/c.out" 2>"$TMP/c.err" ||
  fail "charged resistance failed: $(cat "$TMP/c.err")"
R="$(rounds_of "$TMP/r.err")"
S="$(rounds_of "$TMP/s.err")"
C="$(rounds_of "$TMP/c.err")"
[ -n "$R" ] && [ -n "$S" ] && [ -n "$C" ] ||
  fail "missing rounds= line (resistance '$R', solve '$S', charged resistance '$C')"
[ "$R" -eq $((S + 1)) ] ||
  fail "resistance rounds=$R, expected solve rounds=$S plus 1"
[ "$R" -ne "$C" ] ||
  fail "resistance rounds=$R under broadcast equal the charged rounds=$C"
TR="$(trace_rounds_of "$TMP/t.json")"
TC="$(trace_rounds_of "$TMP/c.json")"
[ "$TR" = "$R" ] ||
  fail "broadcast trace total_rounds='$TR', expected the rounds=$R line"
[ "$TC" = "$C" ] ||
  fail "charged trace total_rounds='$TC', expected the rounds=$C line"

for args in "--threads 4 solve $TMP/g.el 0 5" "solve $TMP/g.el 0 5 1e-8 --threads 4"; do
  # $args is split into its words on purpose (mktemp paths hold no spaces).
  "$BIN" $args >"$TMP/t4.out" 2>"$TMP/t4.err"
  T4=$?
  [ "$T4" -eq 2 ] && grep -q '^usage:' "$TMP/t4.err" ||
    fail "'$args' exited $T4 ($(head -c 200 "$TMP/t4.err")), expected 2 and usage"
done

echo "cli_resistance_routing_test: OK (resistance rounds=$R, solve rounds=$S," \
  "charged resistance rounds=$C)"
