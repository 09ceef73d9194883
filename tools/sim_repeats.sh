#!/bin/sh
# Repeated simulations in a trace. Groups the stage.measure and
# stage.profile spans of an NDJSON trace (`--trace FILE`) by their
# workload (the nearest span up the tree with a `workload` attribute)
# and simulated cycle count. The simulator is deterministic, so a span
# whose pair an earlier span in the file already had most likely ran
# the same simulation again. Prints the simulation count, the repeats,
# and the repeats per root span name (stage.measure / stage.profile).
#
#   tools/sim_repeats.sh TRACE [ROOT=MAX ...]
#
# Each ROOT=MAX exits 1 when more than MAX repeats sit under root spans
# named ROOT. The file order of a trace does not depend on --jobs, so
# neither do the counts.
set -u
[ $# -ge 1 ] || { echo "usage: $0 TRACE [ROOT=MAX ...]" >&2; exit 2; }
trace=$1
shift
[ -r "$trace" ] || { echo "$0: cannot read $trace" >&2; exit 2; }
awk -v limits="$*" '
function num(key,   m) {
  if (match($0, "\"" key "\":[0-9]+")) {
    m = substr($0, RSTART, RLENGTH)
    return substr(m, index(m, ":") + 1)
  }
  return ""
}
function str(key,   m) {
  if (match($0, "\"" key "\":\"[^\"]*\"")) {
    m = substr($0, RSTART, RLENGTH)
    m = substr(m, index(m, ":") + 2)
    return substr(m, 1, length(m) - 1)
  }
  return ""
}
{
  id = num("id")
  parent[id] = num("parent")
  name[id] = str("name")
  w = str("workload")
  if (w != "") workload[id] = w
  if (name[id] == "stage.measure" || name[id] == "stage.profile") {
    sims[++n] = id
    cycles[id] = num("cycles")
  }
}
END {
  for (i = 1; i <= n; i++) {
    id = sims[i]
    w = ""
    root = id
    for (s = id; s != ""; s = parent[s]) {
      if (w == "" && (s in workload)) w = workload[s]
      root = s
    }
    key = w SUBSEP cycles[id]
    if (key in seen) {
      r = name[root]
      repeats++
      if (!(r in by_root)) roots[++nroots] = r
      by_root[r]++
      if (name[id] == "stage.measure") measure[r]++
      else profile[r]++
    }
    seen[key] = 1
  }
  printf "simulations %d, repeats %d\n", n, repeats
  for (i = 1; i <= nroots; i++) {
    r = roots[i]
    printf "  %-24s %4d  (stage.measure %d, stage.profile %d)\n", r,
      by_root[r], measure[r], profile[r]
  }
  status = 0
  k = split(limits, lim, " ")
  for (i = 1; i <= k; i++) {
    eq = index(lim[i], "=")
    r = substr(lim[i], 1, eq - 1)
    max = substr(lim[i], eq + 1) + 0
    if (by_root[r] + 0 > max) {
      printf "%s: %d repeated simulation(s), at most %d allowed\n", r,
        by_root[r], max > "/dev/stderr"
      status = 1
    }
  }
  exit status
}' "$trace"
