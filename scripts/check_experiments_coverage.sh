#!/usr/bin/env bash
# Docs check: every bench_* source must be named in EXPERIMENTS.md, and
# every BM_* kernel recorded in bench/BENCH_*.json must still be defined by
# a BENCHMARK( line in bench/bench_micro.cpp.
# Run from anywhere; CI runs it in the docs-check job and ctest as
# `docs.experiments_coverage`.
set -u
cd "$(dirname "$0")/.."

missing=0
for f in bench/bench_*.cpp; do
  name="$(basename "$f" .cpp)"
  [ "$name" = "bench_common" ] && continue
  if ! grep -q "\`$name\`" EXPERIMENTS.md; then
    echo "::error file=EXPERIMENTS.md::missing entry for $name"
    missing=1
  fi
done

# Recorded names carry benchmark arguments (BM_Foo/16/0); the kernel is
# the part before the first slash.
for name in $(grep -ho '"name": "BM_[A-Za-z0-9_]*' bench/BENCH_*.json | sed 's/.*"BM_/BM_/' | sort -u); do
  if ! grep -q "BENCHMARK($name)" bench/bench_micro.cpp; then
    for f in $(grep -l "\"name\": \"$name[/\"]" bench/BENCH_*.json); do
      echo "::error file=$f::recorded kernel $name is not defined in bench/bench_micro.cpp"
    done
    missing=1
  fi
done

if [ "$missing" -eq 0 ]; then
  echo "check_experiments_coverage: every bench binary is documented and every recorded kernel exists"
fi
exit $missing
