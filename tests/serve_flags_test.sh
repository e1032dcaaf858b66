#!/usr/bin/env bash
# Flag check against the real lapclique_serve daemon: each of its seven
# numeric flags must refuse junk, trailing characters and values out of the
# field's range with exit status 2 and a message that names the flag, and
# values in range must still configure the daemon.  A value outside int64
# must be reported as out of range, not as junk.  --faults must refuse, with
# exit status 2, every clause but the three sock-* ones (naming the clause)
# and any spec given without --port (naming --port).  --threads is no flag
# (every request computes on the thread that handles it), so it must get
# exit status 2 and the usage line like any unknown argument.
#
# Every refused case also carries an invalid --faults spec and reads stdin
# from /dev/null, so a daemon that skipped the numeric check would exit on
# the spec (with a message that does not name the numeric flag) before it
# listened on a port or started a worker.
#
# Registered by tests/CMakeLists.txt as `serve_flags`; argument 1 is the
# daemon binary path.
set -u

BIN="${1:?usage: serve_flags_test.sh <lapclique_serve binary>}"
failures=0

refuse() {  # [SAYS=TEXT] refuse FLAG VALUE...: the message names FLAG, then TEXT
  local flag="$1" value err status
  shift
  for value in "$@"; do
    err="$("$BIN" "$flag" "$value" --faults '!' </dev/null 2>&1 >/dev/null)"
    status=$?
    if [ "$status" -ne 2 ] || [[ "$err" != *"$flag"*"${SAYS:-}"* ]]; then
      echo "serve_flags_test: $flag $value: exit $status, stderr: $err" >&2
      failures=$((failures + 1))
    fi
  done
}

refuse --cache-capacity abc -3 64k 0
refuse --max-request-bytes abc -3 64k 0
refuse --default-deadline-ms abc -3 64k
refuse --port abc -3 64k 65536
refuse --serve-workers abc -3 64k 0 65
refuse --max-pending abc -3 64k
refuse --fault-seed abc -3 64k
SAYS="out of range" refuse --default-deadline-ms 4611686018428 \
  99999999999999999999 -99999999999999999999
SAYS="out of range" refuse --fault-seed 99999999999999999999
SAYS="out of range" refuse --cache-capacity 99999999999999999999

# --threads: an unknown argument, answered with the usage line.
for value in 1 2; do
  err="$("$BIN" --threads "$value" </dev/null 2>&1 >/dev/null)"
  status=$?
  if [ "$status" -ne 2 ] || [[ "$err" != *"usage:"* ]]; then
    echo "serve_flags_test: --threads $value: exit $status, stderr: $err" >&2
    failures=$((failures + 1))
  fi
done

# --faults: only the socket clauses apply, and only to the --port frontend.
# Both cases run in stdin mode on an empty stdin, so a daemon that accepted
# them would answer nothing and exit 0.
for clause in drop=0.5 corrupt=0.3 dup=0.1 crash=1@0 retries=2 preempt=1 \
  ipm-nan@0 solver-nan@all; do
  err="$("$BIN" --faults "sock-drop=0.1,$clause" </dev/null 2>&1 >/dev/null)"
  status=$?
  if [ "$status" -ne 2 ] || [[ "$err" != *"'$clause'"* ]]; then
    echo "serve_flags_test: --faults clause $clause: exit $status, stderr: $err" >&2
    failures=$((failures + 1))
  fi
done
err="$("$BIN" --faults sock-slow=0.1 </dev/null 2>&1 >/dev/null)"
status=$?
if [ "$status" -ne 2 ] || [[ "$err" != *"--port"* ]]; then
  echo "serve_flags_test: --faults without --port: exit $status, stderr: $err" >&2
  failures=$((failures + 1))
fi

# In range: the daemon starts in stdin mode and reports the capacity it got.
out="$(echo '{"op":"cache.stats","id":1}' |
  "$BIN" --cache-capacity 3 --max-request-bytes 65536 \
    --default-deadline-ms 4611686018427 --serve-workers 1 --max-pending 0 \
    --fault-seed 0)"
status=$?
if [ "$status" -ne 0 ] || [[ "$out" != *'"capacity":3'* ]]; then
  echo "serve_flags_test: in-range flags: exit $status, stdout: $out" >&2
  failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
  echo "serve_flags_test: $failures case(s) failed" >&2
  exit 1
fi
echo "serve_flags_test: ok"
