#!/usr/bin/env bash
# Docs check: every DESIGN.md section and every test cited from the tree
# must exist.
#
# Sources cite sections as "DESIGN.md §1.1", "DESIGN.md 1.1" or
# "DESIGN.md §2"; this script extracts the cited numbers and requires a
# matching markdown heading ("## 2. ..." / "### 1.1 ...") in DESIGN.md.
# Tests are cited as `Suite.Test` (or `Suite.*`); each must resolve to a
# test defined under tests/.
# Run from anywhere; CI runs it in the docs-check job and ctest as
# `docs.design_refs`.
set -u
cd "$(dirname "$0")/.."

if [ ! -f DESIGN.md ]; then
  echo "::error::DESIGN.md does not exist but the tree cites it"
  exit 1
fi

refs=$(grep -rhoE "DESIGN\.md[^0-9]{0,3}§?[0-9]+(\.[0-9]+)*" \
         src tests bench examples tools 2>/dev/null |
       grep -oE "[0-9]+(\.[0-9]+)*" | sort -u)

fail=0
for sec in $refs; do
  esc=$(printf '%s' "$sec" | sed 's/\./\\./g')
  if ! grep -qE "^#+ +(§)?${esc}([^0-9.]|\.[^0-9]|\.?$)" DESIGN.md; then
    echo "::error file=DESIGN.md::cited section ${sec} has no heading in DESIGN.md"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "check_design_refs: all cited DESIGN.md sections resolve ($(echo "$refs" | wc -w | tr -d ' ') sections)"
fi

# Test citations: every `Suite.Test` cited in backticks from the docs, src/
# or bench/ must name a TEST / TEST_P / TEST_F in tests/ (for TEST_P the
# suite is the fixture class, not the instantiation prefix). A wildcard
# citation such as `Suite.*` or `Suite.*Suffix` must match at least one test.
defined=$(grep -rhoE "^TEST(_P|_F)?\( *[A-Za-z0-9_]+, *[A-Za-z0-9_]+" tests |
          sed -E 's/^TEST(_P|_F)?\( *//; s/, */./' | sort -u)
cited=$(grep -rhoE '`[A-Z][A-Za-z0-9_]*\.([A-Z][A-Za-z0-9_]*|\*[A-Za-z0-9_]*)`' \
          DESIGN.md README.md EXPERIMENTS.md src bench 2>/dev/null | tr -d '`' | sort -u)

tests_fail=0
set -f  # citations hold `*`: no pathname expansion when splitting them
for cite in $cited; do
  found=0
  for name in $defined; do
    # Unquoted right-hand side: `*` in a citation is a glob.
    if [[ "$name" == $cite ]]; then
      found=1
      break
    fi
  done
  if [ "$found" -eq 0 ]; then
    where=$(grep -rlF "\`$cite\`" DESIGN.md README.md EXPERIMENTS.md src bench 2>/dev/null | head -1)
    echo "::error file=${where}::cited test ${cite} matches no TEST in tests/"
    tests_fail=1
  fi
done

if [ "$tests_fail" -eq 0 ]; then
  echo "check_design_refs: all cited tests resolve ($(echo "$cited" | wc -w | tr -d ' ') citations)"
fi
[ "$fail" -eq 0 ] && [ "$tests_fail" -eq 0 ]
