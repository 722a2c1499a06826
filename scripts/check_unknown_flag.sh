#!/usr/bin/env bash
# Assert that a bench rejects a flag it does not know: `<bench> <args...>`
# must exit 2 and name `--<flag>` on stderr (BenchEnv::parse in
# bench/bench_common.hpp), rather than run at the default configuration.
#
# Usage: check_unknown_flag.sh <flag> <bench> [args...]
set -u

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <flag> <bench> [args...]" >&2
  exit 2
fi
flag=$1
shift

err=$("$@" 2>&1 >/dev/null)
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "error: '$*' exited $rc, expected 2 for the unknown flag --$flag" >&2
  exit 1
fi
case "$err" in
  *"--$flag"*) echo "ok: '$*' exits 2: $err" ;;
  *)
    echo "error: '$*' exited 2 without naming --$flag: $err" >&2
    exit 1
    ;;
esac
