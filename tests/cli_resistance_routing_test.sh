#!/usr/bin/env bash
# CLI `resistance` must run under the invocation's Runtime, like `solve`:
#
#   1. with --routing broadcast its --trace must charge Broadcast Congested
#      Clique primitives (bcast_*), not unicast ones;
#   2. its rounds= line must be the `solve` rounds for the same pair plus
#      the one broadcast of the two potentials.
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

# An 8-vertex graph: two 4-cycles sharing vertex 0.
printf '8 9\n0 1\n1 2\n2 3\n3 0\n0 4\n4 5\n5 6\n6 7\n7 0\n' >"$TMP/g.el"

"$BIN" --routing broadcast --trace "$TMP/t.json" resistance "$TMP/g.el" 0 5 \
  >"$TMP/r.out" 2>"$TMP/r.err" || fail "resistance failed: $(cat "$TMP/r.err")"
grep -q '"bcast_' "$TMP/t.json" ||
  fail "broadcast trace charges no bcast_* primitive"

"$BIN" --routing broadcast solve "$TMP/g.el" 0 5 \
  >"$TMP/s.out" 2>"$TMP/s.err" || fail "solve failed: $(cat "$TMP/s.err")"
R="$(rounds_of "$TMP/r.err")"
S="$(rounds_of "$TMP/s.err")"
[ -n "$R" ] && [ -n "$S" ] || fail "missing rounds= line (resistance '$R', solve '$S')"
[ "$R" -eq $((S + 1)) ] ||
  fail "resistance rounds=$R, expected solve rounds=$S plus 1"

echo "cli_resistance_routing_test: OK (resistance rounds=$R, solve rounds=$S)"
