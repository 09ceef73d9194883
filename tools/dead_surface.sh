#!/bin/sh
# Dead-surface scan: every `val v` exported by a lib/**/*.mli that no
# .ml under lib/, bin/, bench/ or examples/ other than the module's own
# mentions as a word. Each one must be a test seam on the allowlist
# (tools/dead_surface.allow: `Module.v test/test_x.ml ...`), and each
# test named there must mention the val.
#
#   tools/dead_surface.sh          check; exit 1 on any finding
#   tools/dead_surface.sh --list   print the unreferenced vals
#
# Run from the repository root.
set -u
allow=tools/dead_surface.allow

scan() {
  for mli in $(find lib -name '*.mli' | sort); do
    own="${mli%.mli}.ml"
    m=$(basename "${mli%.mli}")
    m="$(printf %s "$m" | cut -c1 | tr a-z A-Z)$(printf %s "$m" | cut -c2-)"
    for v in $(sed -n "s/^ *val  *\([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
      if ! grep -rlw --include='*.ml' -- "$v" lib bin bench examples \
          | grep -qvx "$own"; then
        echo "$m.$v"
      fi
    done
  done
}

if [ "${1:-}" = "--list" ]; then
  scan
  exit 0
fi

found=$(scan)
entries=$(sed -e 's/#.*//' "$allow" | awk 'NF { print $1 }')
fail=0
for mv in $found; do
  if ! printf '%s\n' "$entries" | grep -qx "$mv"; then
    echo "dead surface: $mv is exported but nothing outside its module uses it" >&2
    fail=1
  fi
done
for mv in $entries; do
  if ! printf '%s\n' "$found" | grep -qx "$mv"; then
    echo "stale allowlist entry: $mv has a non-test caller or is gone" >&2
    fail=1
  fi
done
sed -e 's/#.*//' "$allow" | awk 'NF' | while read -r mv tests; do
  [ -n "$tests" ] || { echo "allowlist: $mv names no test" >&2; exit 1; }
  for t in $tests; do
    grep -qw -- "${mv#*.}" "$t" 2>/dev/null \
      || { echo "allowlist: $t does not use $mv" >&2; exit 1; }
  done
done || fail=1
[ "$fail" -eq 0 ] || { echo "dead-surface scan failed" >&2; exit 1; }
n=$(printf '%s\n' "$found" | awk 'NF' | wc -l)
echo "dead-surface scan: $n unreferenced val(s), all allowlisted test seams"
