#!/usr/bin/env bash
# check_docs.sh — the CI docs gate.
#
# Enforces four documentation invariants:
#   1. every package (internal/*, cmd/*, examples/*, the facade) has a
#      package doc comment (go list -f '{{.Doc}}');
#   2. every relative markdown link in README.md and docs/*.md
#      resolves to an existing file;
#   3. every flag a cmd/ binary lists in its -h output is documented
#      in docs/EXPERIMENTS.md (the CLI reference stays in sync with the
#      actual flag set, wherever the flag is registered);
#   4. every Go name README.md and docs/*.md mention as a backticked
#      `pkg.Name` or `pkg.Type.Member`, for the facade (`llamcat.`) and
#      the internal packages, resolves with go doc.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# 1. Package doc comments.
missing=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./... | grep -v '^$' || true)
if [ -n "$missing" ]; then
  echo "packages missing a package doc comment:" >&2
  echo "$missing" >&2
  fail=1
fi

# 2. Relative markdown links resolve.
for f in README.md docs/*.md; do
  dir=$(dirname "$f")
  links=$(grep -oE '\]\([^)]+\)' "$f" | sed -e 's/^](//' -e 's/)$//' || true)
  while read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://* | https://* | '#'*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "$f: broken relative link: $target" >&2
      fail=1
    fi
  done <<<"$links"
done

# 3. CLI flags are documented. The names come from each binary's own
# -h output, so flags registered outside cmd/ (internal/cli) count too.
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
for dir in cmd/*/; do
  name=$(basename "$dir")
  go build -o "$bin/$name" "./$dir"
  flags=$("$bin/$name" -h 2>&1 | sed -nE 's/^  -([^[:space:]]+).*/\1/p' | sort -u)
  if [ -z "$flags" ]; then
    echo "cmd/$name -h lists no flags" >&2
    fail=1
  fi
  for fl in $flags; do
    if ! grep -q -- "\`-$fl\`" docs/EXPERIMENTS.md; then
      echo "flag -$fl of cmd/$name is not documented in docs/EXPERIMENTS.md" >&2
      fail=1
    fi
  done
done

# 4. Go names in the docs resolve. A span that is only `pkg.Name` or
# `pkg.Type.Member` is a reference; a file name such as `llamcat.go`
# is not.
pkgs="llamcat|$(ls internal | paste -sd'|')"
refs=$(grep -ohE '`[^`]+`' README.md docs/*.md |
  grep -E "^\`($pkgs)\.[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?\`$" |
  tr -d '`' | grep -vE '\.(go|md|sh|txt|json)$' | sort -u || true)
for ref in $refs; do
  pkg=${ref%%.*}
  dir=./internal/$pkg
  [ "$pkg" = llamcat ] && dir=.
  if ! go doc -u "$dir" "${ref#*.}" >/dev/null 2>&1; then
    echo "docs name \`$ref\`, which go doc does not find" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docs check failed" >&2
  exit 1
fi
echo "docs check OK"
