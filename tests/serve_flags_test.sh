#!/usr/bin/env bash
# Numeric-flag check against the real lapclique_serve daemon: each of its
# eight numeric flags must refuse junk, trailing characters and values out
# of the field's range with exit status 2 and a message that names the flag,
# and values in range must still configure the daemon.
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

refuse() {  # refuse FLAG VALUE...
  local flag="$1" value err status
  shift
  for value in "$@"; do
    err="$("$BIN" "$flag" "$value" --faults '!' </dev/null 2>&1 >/dev/null)"
    status=$?
    if [ "$status" -ne 2 ] || [[ "$err" != *"$flag"* ]]; then
      echo "serve_flags_test: $flag $value: exit $status, stderr: $err" >&2
      failures=$((failures + 1))
    fi
  done
}

refuse --cache-capacity abc -3 64k 0
refuse --max-request-bytes abc -3 64k 0
refuse --threads abc -3 64k 0 65
refuse --default-deadline-ms abc -3 64k
refuse --port abc -3 64k 65536
refuse --serve-workers abc -3 64k 0 65
refuse --max-pending abc -3 64k
refuse --fault-seed abc -3 64k

# In range: the daemon starts in stdin mode and reports the capacity it got.
out="$(echo '{"op":"cache.stats","id":1}' |
  "$BIN" --cache-capacity 3 --max-request-bytes 65536 --threads 2 \
    --default-deadline-ms 0 --serve-workers 1 --max-pending 0 --fault-seed 0)"
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
