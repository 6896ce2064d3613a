#!/bin/sh
# The --jobs bound on the command line: a value above the runtime's
# domain limit (Parallel.max_jobs = 128) is a cmdliner usage error
# (exit 124) that names the limit, never an uncaught exception (exit
# 125); the limit itself and --jobs 0 (clamped to 1) are accepted.
# Usage: sh test/jobs_limit.sh [path/to/bin/main.exe]
set -u

BIN="${1:-./_build/default/bin/main.exe}"

err="$("$BIN" experiment table2 --jobs 200 2>&1 >/dev/null)"
code=$?
if [ "$code" -ne 124 ]; then
  echo "jobs_limit: --jobs 200 exited $code, expected 124" >&2
  echo "$err" >&2
  exit 1
fi
case "$err" in
  *"exceeds the limit of 128"*) ;;
  *) echo "jobs_limit: usage error does not name the limit: $err" >&2
     exit 1 ;;
esac

# With no experiment id the command only lists the experiments, so these
# check that the value parses without running the suite.
for j in 0 1 128; do
  if ! "$BIN" experiment --jobs "$j" > /dev/null; then
    echo "jobs_limit: --jobs $j was rejected" >&2
    exit 1
  fi
done
echo "jobs_limit: ok"
