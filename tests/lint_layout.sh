#!/bin/sh
# Part of sharpie. Lint, both directions: every directory under src/ must
# have a row in DESIGN.md's module table (section 2, "System inventory")
# and a place in its repository layout (section 5), and neither may name a
# module that src/ lacks. A module missing from the inventory is invisible
# to a reader orienting in the code; a listed module that is gone sends
# them looking for code that does not exist. This makes the doc row part
# of adding -- and of removing -- a module.
#
#   usage: lint_layout.sh <repo-root>
#
# Section 2: the first cell of each row of the table headed "| Module".
# Section 5: every src/NAME and every name in a src/{a,b,...} list.
ROOT=${1:?usage: lint_layout.sh repo-root}
DESIGN="$ROOT/DESIGN.md"

[ -r "$DESIGN" ] || { echo "missing $DESIGN"; exit 1; }
[ -d "$ROOT/src" ] || { echo "missing $ROOT/src"; exit 1; }

LC_ALL=C
export LC_ALL

MODULES=$(for D in "$ROOT"/src/*/; do basename "$D"; done | sort -u)

TABLE=$(awk '/^## 2\./ { sec = 1; next }
             sec && /^## / { exit }
             sec && /^\| Module/ { tab = 1; next }
             tab && !/^\|/ { exit }
             tab && /^\| `/ { print }' "$DESIGN" \
        | sed -E 's/^\| `([^`]*)`.*/\1/' | sort -u)

LAYOUT=$(awk '/^## 5\./ { sec = 1; next }
              sec && /^## / { exit }
              sec { print }' "$DESIGN" \
         | grep -oE 'src/(\{[a-z,]*\}|[a-z]+)' | sed -E 's#^src/##; s/[{}]//g' \
         | tr ',' '\n' | sort -u)

[ -n "$MODULES" ] || { echo "no directories under src/ -- lint is broken"; exit 1; }
[ -n "$TABLE" ] || { echo "no module table in DESIGN.md section 2 -- lint is broken"; exit 1; }
[ -n "$LAYOUT" ] || { echo "no src/ layout in DESIGN.md section 5 -- lint is broken"; exit 1; }

FAIL=0
# report <where> <documented names>
report() {
  MISSING=$(printf '%s\n' "$MODULES" | grep -vxF "$2")
  STALE=$(printf '%s\n' "$2" | grep -vxF "$MODULES")
  if [ -n "$MISSING" ]; then
    echo "directories under src/ missing from DESIGN.md $1:"
    for M in $MISSING; do echo "  $M"; done
    FAIL=1
  fi
  if [ -n "$STALE" ]; then
    echo "DESIGN.md $1 names modules src/ does not have:"
    for M in $STALE; do echo "  $M"; done
    FAIL=1
  fi
}

report "section 2's module table" "$TABLE"
report "section 5's repository layout" "$LAYOUT"
exit $FAIL
