#!/usr/bin/env bash
# Docs rot when code moves: fail CI if README.md, docs/ARCHITECTURE.md,
# docs/PERFORMANCE.md, docs/WIRE_FORMAT.md or docs/OBSERVABILITY.md
# reference a repo path that no longer exists, or name a CI job (written
# "the `<name>` CI job") that .github/workflows/ci.yml does not define.
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

if [[ $status -eq 0 ]]; then
  echo "doc path and CI job references OK (${docs[*]})"
fi
exit $status
