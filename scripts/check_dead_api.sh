#!/usr/bin/env bash
# Dead-API gate: every non-template `sens::` function that libsens.a
# defines or a public header declares inline must be kept by at least one
# binary that ships or measures the library, or be listed in
# scripts/dead_api_allow.txt with the test that needs it and why.
#
# How: build the library and every non-test binary (the bench binaries,
# the examples, the tools) in Debug with -ffunction-sections
# -fdata-sections and link with -Wl,--gc-sections; link perfbench's
# sources against the same libsens.a. The linker then drops each function
# no binary reaches. Then compile one translation unit that includes every
# src/sens/**/*.hpp with -fkeep-inline-functions, so each header-inline
# function is emitted whether or not anything calls it, even from a header
# no library source includes. A global function libsens.a or that unit
# defines and no binary holds is unreferenced. Debug (-O0) means inlining
# cannot hide a caller (a binary emits every inline function it calls),
# and a helper called only from its own object survives --gc-sections
# with its caller, so private helpers are no false positives.
#
# Fails (exit 1) on
#   - an unreferenced function that no allowlist line names, and
#   - an allowlist line whose function is no longer defined, or is now
#     kept by some binary (the line is stale: delete it).
#
# What it cannot see:
#   - templates: instantiations are skipped (a class template's members
#     too), and a template nothing instantiates is never emitted;
#   - internal-linkage functions (static, anonymous namespace): only
#     -Wunused-function (an error under -Werror) catches those;
#   - data members and type aliases: they emit no function;
#   - special members, filtered on purpose: X::X(), X::X(X const&),
#     X::X(X&&), X::operator=(X const&), X::operator=(X&&) and X::~X()
#     are mostly compiler-generated, and a class needs them to exist;
#   - calls through binaries outside this build (installed consumers).
#
# Usage: scripts/check_dead_api.sh [BUILD_DIR]   (default build/dead-api)
# Needs cmake, GCC with C++20 (-fkeep-inline-functions is a GCC flag), nm
# and c++filt; google-benchmark, when installed, adds bench_micro to the
# binaries. CMake's CMAKE_GENERATOR environment variable picks the
# generator.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$(mkdir -p "${1:-$root/build/dead-api}" && cd "${1:-$root/build/dead-api}" && pwd)
allow="$root/scripts/dead_api_allow.txt"

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DSENS_BUILD_TESTS=OFF -DSENS_BUILD_BENCH=ON -DSENS_BUILD_EXAMPLES=ON -DSENS_BUILD_TOOLS=ON \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > "$build/configure.log"
cmake --build "$build" -j "$(nproc)" > "$build/build.log" || { cat "$build/build.log"; exit 1; }

lib="$build/libsens.a"
cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$build/CMakeCache.txt")
rm -rf "$build/perfbench" && mkdir -p "$build/perfbench"
for src in "$root"/perfbench/src/*.cpp; do
  "$cxx" -std=c++20 -g -O0 -ffunction-sections -fdata-sections -I"$root/src" \
    -DPERFBENCH_BUILD_TYPE='"Debug"' -c "$src" -o "$build/perfbench/$(basename "$src" .cpp).o"
done
"$cxx" -Wl,--gc-sections "$build"/perfbench/*.o "$lib" -pthread -o "$build/perfbench/perfbench"

# Every public header in one unit, inline functions kept. -Werror stops
# the gate on a compiler that ignores -fkeep-inline-functions with a
# warning (clang) instead of passing it with the headers unread.
find "$root/src/sens" -name '*.hpp' -printf '%P\n' | LC_ALL=C sort |
  sed 's|.*|#include "sens/&"|' > "$build/all_headers.cpp"
"$cxx" -std=c++20 -g -O0 -fkeep-inline-functions -Werror -I"$root/src" \
  -c "$build/all_headers.cpp" -o "$build/all_headers.o"

# Every executable this build linked: bench_*, examples, tools, perfbench.
mapfile -t bins < <(find "$build" -maxdepth 1 -type f -perm -u+x)
bins+=("$build/perfbench/perfbench")

# Global text symbols (mangled) kept by any binary / defined by the library.
kept=$(for b in "${bins[@]}"; do nm --defined-only "$b"; done |
       awk '$2 ~ /^[TtWw]$/ { print $3 }' | sort -u)
defined=$(nm --defined-only "$lib" "$build/all_headers.o" 2> /dev/null |
          awk '$2 ~ /^[TW]$/ { print $3 }' | sort -u)

# Library functions no binary keeps, demangled, as "qualified-name<TAB>signature".
# Kept are non-template sens:: functions: the name before the parameter
# list holds no '<' once operator tokens are masked, the symbol is not
# a function-local entity (lambda, local class) of some other function,
# and it is no special member of its class.
dead=$(comm -23 <(echo "$defined") <(echo "$kept") | c++filt |
  awk '
    /^sens::/ {
      sig = $0
      s = sig
      gsub(/operator(<=>|<<=|<<|<=|<|\(\))/, "operator_", s)
      p = index(s, "(")
      if (p == 0) next
      name = substr(s, 1, p - 1)
      rest = substr(s, p)
      if (name ~ /</ || rest ~ /\)::/ || s ~ /\{lambda/) next
      k = split(name, part, "::")
      cls = substr(name, 1, length(name) - length(part[k]) - 2)
      copy_or_move = rest == "(" cls " const&)" || rest == "(" cls "&&)"
      if ((part[k] == part[k - 1] && (rest == "()" || copy_or_move)) ||
          (part[k] == "operator=" && copy_or_move) || (part[k] == "~" part[k - 1] && rest == "()")) next
      # Recover the real operator spelling for the name column.
      print substr(sig, 1, length(sig) - length(rest)) "\t" sig
    }' | sort -u)

# Allowlist: "qualified-name | test | reason", '#' comments, blank lines.
allowed=$(sed -e 's/#.*//' -e '/^[[:space:]]*$/d' "$allow" | cut -d'|' -f1 |
          sed -e 's/^[[:space:]]*//' -e 's/[[:space:]]*$//' | sort -u)
dead_names=$(cut -f1 <<< "$dead" | sed '/^$/d' | sort -u)
defined_names=$(echo "$defined" | c++filt | sed -n 's/^\(sens::[^(]*\)(.*/\1/p' | sort -u)

fail=0
while IFS=$'\t' read -r name sig; do
  [ -n "$name" ] || continue
  if ! grep -qxF "$name" <<< "$allowed"; then
    echo "check_dead_api: unreferenced library function: $sig"
    fail=1
  fi
done <<< "$dead"
while read -r name; do
  [ -n "$name" ] || continue
  if grep -qxF "$name" <<< "$dead_names"; then continue; fi
  if grep -qxF "$name" <<< "$defined_names"; then
    echo "check_dead_api: stale allowlist line, now kept by a binary or a filtered special member: $name"
  else
    echo "check_dead_api: stale allowlist line, no longer defined: $name"
  fi
  fail=1
done <<< "$allowed"

if [ "$fail" -ne 0 ]; then
  echo "check_dead_api: delete the function, move it into the test that uses it, or allowlist it"
  echo "  (with its test and reason) in scripts/dead_api_allow.txt; delete stale allowlist lines"
  exit 1
fi
echo "check_dead_api: ${#bins[@]} binaries keep every library function" \
     "but $(grep -c . <<< "$dead_names" || true) allowlisted ones"
