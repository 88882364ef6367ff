#!/usr/bin/env bash
# Verify that every relative Markdown link in README.md and docs/ points at
# a file that exists. External (scheme://) and intra-page (#anchor) links
# are skipped; a "path#Lnn" anchor is checked against the path part.
#
# Also verify that every backticked repository path (`bench/...`,
# `scripts/...`, `src/...`) in README.md, DESIGN.md, EXPERIMENTS.md and
# docs/, and every such path in a manifest's section notes, names a file,
# directory or glob that exists. Only the first word counts (arguments
# follow it), a ":line" suffix is dropped, and a build-target name resolves
# through its .cpp source.
#
# Usage: scripts/check_links.sh   (from the repository root)
set -u

fail=0
files=$(find docs -name '*.md' 2>/dev/null; ls README.md 2>/dev/null)

for file in $files; do
  dir=$(dirname "$file")
  # Extract (target) parts of [text](target) links, one per line.
  targets=$(grep -o '](\([^)]*\))' "$file" | sed 's/^](//; s/)$//')
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      *://*|mailto:*|\#*) continue ;;
    esac
    path=${target%%#*}
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "BROKEN: $file -> $target"
      fail=1
    fi
  done <<EOF
$targets
EOF
done

# Every top-level docs page must be reachable from the docs index, so a
# new guide cannot be added without surfacing it.
if [ -f docs/README.md ]; then
  for page in docs/*.md; do
    base=$(basename "$page")
    [ "$base" = "README.md" ] && continue
    if ! grep -q "($base)" docs/README.md; then
      echo "UNLINKED: $page is not linked from docs/README.md"
      fail=1
    fi
  done
fi

# Resolve one repository path reference; report it when nothing matches.
check_path() {
  local where=$1 ref=$2 path
  path=${ref%%:[0-9]*}
  path=${path%.}
  for candidate in $path "$path.cpp"; do
    [ -e "$candidate" ] && return 0
  done
  echo "MISSING: $where -> $ref"
  fail=1
}

doc_files=$(ls README.md DESIGN.md EXPERIMENTS.md 2>/dev/null; find docs -name '*.md')
for file in $doc_files; do
  refs=$(grep -oE '`(bench|scripts|src)/[^` ]*' "$file" | sed 's/^`//' | sort -u)
  for ref in $refs; do check_path "$file" "$ref"; done
done

for manifest in manifests/*.json; do
  refs=$(grep -E '^ *"notes":' "$manifest" |
         grep -oE '(^|[^A-Za-z0-9_./-])(bench|scripts|src)/[A-Za-z0-9_.*/-]*' |
         sed -E 's#^[^bs]##' | sort -u)
  for ref in $refs; do check_path "$manifest notes" "$ref"; done
done

if [ "$fail" -ne 0 ]; then
  echo "link check failed"
  exit 1
fi
echo "all relative links and repository paths resolve"
