#!/usr/bin/env bash
# The CLI's generators and readers share one input-size cap
# (io::kMaxVertices, io::kMaxArcs) and one arc-value bound
# (io::kMaxArcValue), so it never writes a file it refuses to read, and a
# header past the cap is refused before anything is allocated:
#
#   1. gen-maxflow and gen-mincost refuse one arc or one vertex past the cap,
#      and a U or W one past the bound, with exit 1 and an "out of range"
#      message naming the argument;
#   2. they refuse an m past the arcs n vertices hold (they once redrew
#      forever) with exit 1, inside the timeout;
#   3. maxflow, mincost and solve refuse a header one vertex past the cap
#      (29 bytes once took maxflow to a 538 MB peak) with exit 1 and a
#      line-located "implausibly large" diagnostic.
#
# Registered by tests/CMakeLists.txt as `cli_input_caps`; argument 1 is the
# lapclique_cli binary path.
set -u

BIN="${1:?usage: cli_input_caps_test.sh <lapclique_cli binary>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "cli_input_caps_test: $*" >&2
  exit 1
}

# expect_refused <stderr needle> <command args...>
expect_refused() {
  local needle="$1"
  shift
  timeout 30 "$BIN" "$@" >"$TMP/out" 2>"$TMP/err"
  local rc=$?
  [ "$rc" -eq 1 ] || fail "'$*' exited $rc, expected 1 ($(head -c 200 "$TMP/err"))"
  grep -q -- "$needle" "$TMP/err" ||
    fail "'$*' said '$(head -c 200 "$TMP/err")', expected '$needle'"
}

expect_refused "gen-maxflow: m: 50000001 out of range" gen-maxflow 10 50000001 4 1
expect_refused "gen-mincost: m: 50000001 out of range" gen-mincost 10 50000001 4 1
expect_refused "gen-maxflow: n: 1000001 out of range" gen-maxflow 1000001 0 4 1
expect_refused "gen-mincost: n: 1000001 out of range" gen-mincost 1000001 0 4 1
expect_refused "gen-maxflow: U: 137438953473 out of range" gen-maxflow 10 20 137438953473 1
expect_refused "gen-mincost: W: 137438953473 out of range" gen-mincost 10 20 137438953473 1
expect_refused "m must be at most n^2 - 3n + 3 = 3" gen-maxflow 3 100 4 1
expect_refused "m must be at most n(n - 1) = 12" gen-mincost 4 13 4 1

printf 'p max 1000001 0\nn 1 s\nn 2 t\n' >"$TMP/big.max"
printf 'p min 1000001 0\n' >"$TMP/big.min"
printf '1000001 0\n' >"$TMP/big.el"
expect_refused "line 1: implausibly large" maxflow "$TMP/big.max"
expect_refused "line 1: implausibly large" mincost "$TMP/big.min"
expect_refused "line 1: implausibly large" solve "$TMP/big.el" 0 1

echo "cli_input_caps_test: OK"
