#!/usr/bin/env bash
# Docs rot when code moves: fail CI if README.md, docs/ARCHITECTURE.md,
# docs/PERFORMANCE.md, docs/WIRE_FORMAT.md or docs/OBSERVABILITY.md
# reference a repo path that no longer exists, or name a CI job (written
# "the `<name>` CI job") that .github/workflows/ci.yml does not define,
# or if a metric name defined in src/telemetry/stage_names.hpp is missing
# from docs/OBSERVABILITY.md (where `a_{b,c}_d` names a_b_d and a_c_d).
#
# A "path reference" is any token that starts with a known top-level source
# directory (src/, tests/, bench/, perfbench/, examples/, scripts/, docs/,
# .github/).
# Brace groups like src/timeseries/distance.{hpp,cpp} are expanded before
# checking. Trailing sentence punctuation is stripped.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

docs=(README.md docs/ARCHITECTURE.md docs/PERFORMANCE.md docs/WIRE_FORMAT.md
      docs/OBSERVABILITY.md)
workflow=.github/workflows/ci.yml
status=0

# Job ids: the two-space-indented keys under the top-level `jobs:` key.
ci_jobs="$(awk '/^[^ #]/ { in_jobs = ($0 ~ /^jobs:/) }
                in_jobs && /^  [A-Za-z0-9_-]+:/ { sub(/:.*/, ""); print $1 }' "$workflow")"

for doc in "${docs[@]}"; do
  if [[ ! -f "$doc" ]]; then
    echo "MISSING DOC: $doc" >&2
    status=1
    continue
  fi
  # Tokens: known root dir, then path characters (incl. {a,b} groups).
  while IFS= read -r ref; do
    # Strip trailing punctuation that belongs to the sentence, not the path.
    while [[ "$ref" == *. || "$ref" == *, || "$ref" == *: || "$ref" == *\) ]]; do
      ref="${ref%?}"
    done
    [[ -n "$ref" ]] || continue
    # Expand {a,b} groups; the grep charset admits no shell metacharacters
    # beyond the braces/commas themselves, so eval-echo is safe here.
    for candidate in $(eval echo "$ref"); do
      if [[ ! -e "$candidate" ]]; then
        echo "STALE PATH in $doc: $candidate (from '$ref')" >&2
        status=1
      fi
    done
  done < <(grep -oE '\b(src|tests|bench|perfbench|examples|scripts|docs|\.github)/[A-Za-z0-9_.{},/-]+' "$doc" | sort -u)
  # CI job names, also where a line break falls inside the phrase.
  while IFS= read -r job; do
    if ! grep -qxF "$job" <<<"$ci_jobs"; then
      echo "STALE CI JOB in $doc: '$job' is not a job in $workflow" >&2
      status=1
    fi
  done < <(tr '\n' ' ' <"$doc" | grep -oE '`[A-Za-z0-9_-]+`[[:space:]]+CI[[:space:]]+job' |
           sed -E 's/^`([^`]*)`.*/\1/' | sort -u)
done

# Metric names: each `std::string_view kName = "name"` of stage_names.hpp
# must be a word of OBSERVABILITY.md once its {a,b} groups are expanded
# (the grep charset admits no shell metacharacters beyond the braces and
# commas, so eval is safe here too).
metric_names=src/telemetry/stage_names.hpp
metric_doc=docs/OBSERVABILITY.md
documented_metrics="$({
  grep -oE '[a-z][a-z0-9_]*' "$metric_doc"
  for group in $(grep -oE '[a-z0-9_]*\{[a-z0-9_,]+\}[a-z0-9_]*' "$metric_doc" | sort -u); do
    eval "printf '%s\\n' $group"
  done
} | sort -u)"
metric_count=0
while IFS= read -r name; do
  metric_count=$((metric_count + 1))
  if ! grep -qxF "$name" <<<"$documented_metrics"; then
    echo "UNDOCUMENTED METRIC: $name ($metric_names) is not named in $metric_doc" >&2
    status=1
  fi
done < <(tr '\n' ' ' <"$metric_names" |
         grep -oE 'string_view k[A-Za-z0-9]+[[:space:]]*=[[:space:]]*"[a-z0-9_]+"' |
         sed -E 's/.*"([a-z0-9_]+)"/\1/' | sort -u)

if [[ $status -eq 0 ]]; then
  echo "doc path and CI job references OK (${docs[*]});" \
       "$metric_count metric names documented in $metric_doc"
fi
exit $status
