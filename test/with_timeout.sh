#!/bin/sh
# Run one alcotest executable under a wall-clock limit, so that a hung
# case fails its suite instead of spinning forever.  On timeout, name the
# case that was still running: alcotest opens each case's output file in
# the run's log directory when the case starts, so it is the newest one.
#
# Usage: with_timeout.sh SECONDS TEST.exe [ARGS...]
limit=$1
exe=$2
shift 2
case $exe in */*) ;; *) exe=./$exe ;; esac
log=$(mktemp)
timeout "$limit" "$exe" "$@" >"$log" 2>&1
status=$?
cat "$log"
if [ "$status" -eq 124 ]; then
  id=$(sed -n "s/.*This run has ID \`\([A-Z0-9]*\)'.*/\1/p" "$log" | head -n 1)
  running=$(ls -t "_build/_tests/$id"/*.output 2>/dev/null | head -n 1)
  echo "TIMEOUT: $exe ran past ${limit}s; case still running: $(basename "$running" .output)" >&2
fi
rm -f "$log"
exit "$status"
