#!/usr/bin/env bash
# Print the non-test code of crates/*/src, one `file:line: text` per line:
# the lines that are neither blank nor `//` comments, up to each file's
# `#[cfg(test)] mod` (the `#[cfg(test)]` attribute lines themselves left
# out). A file pulled in by a `#[cfg(test)] mod x;` declaration is test
# code whole and is skipped, unless `--all` is given: that reads every
# file, test-only ones included.
#
#   .github/non_test_code.sh | grep -c .        # non-test lines
#   .github/non_test_code.sh --all | grep -c .  # the same, every file read
set -euo pipefail

files=$(find crates/*/src -name '*.rs' | sort)
if [ "${1:-}" != --all ]; then
  test_only=$(for f in $files; do
    # The directory of the modules `f` declares.
    case $f in */mod.rs | */lib.rs | */main.rs | */bin/*) dir=$(dirname "$f") ;; *) dir=${f%.rs} ;; esac
    awk '/^#\[cfg\(test\)\]/ { getline n; if (n ~ /^(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/) {
           sub(/^.*mod /, "", n); sub(/;.*/, "", n); print n } }' "$f" |
      while read -r m; do ls "$dir/$m.rs" "$dir/$m/mod.rs" 2>/dev/null || true; done
  done)
  files=$(printf '%s\n' $files | grep -vxF -f <(printf '%s\n' $test_only) || true)
fi
printf '%s\n' $files | xargs awk 't && /^mod / { nextfile } { t = 0 }
  /^#\[cfg\(test\)\]/ { t = 1; next }
  !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }'
