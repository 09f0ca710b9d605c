#!/usr/bin/env bash
# Prints the public items nothing else names: every `pub fn`, `struct`,
# `enum` or `const` declared in crates/*/src (each file up to its first
# `#[cfg(test)]` line, skipping the test-only `reference.rs` modules, as
# ci/loc.sh counts) whose name appears as a whole word in no other `.rs`
# file under crates/, src/, tests/, examples/ or perfbench/. Such an item
# is reached, if at all, only from its own file: often only from its own
# unit tests. One `file:line: name` line per item, then the count.
# Informational: it gates nothing and exits 0.
set -euo pipefail
cd "$(dirname "$0")/.."
mapfile -t decls < <(find crates/*/src -name '*.rs' ! -name reference.rs | sort)
# One "file:word" line per distinct identifier of each file.
grep -rowE --include='*.rs' --exclude-dir=target '[A-Za-z_][A-Za-z0-9_]*' \
    crates src tests examples perfbench \
  | sort -u \
  | awk '
      FILENAME == "-" {
        i = index($0, ":")
        word = substr($0, i + 1)
        files[word]++
        seen[substr($0, 1, i - 1), word] = 1
        next
      }
      FNR == 1 { counting = 1 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
      counting && match($0, /^[[:space:]]*pub[[:space:]]+((const|unsafe|async)[[:space:]]+)*(fn|struct|enum|const)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/) {
        n = split(substr($0, RSTART, RLENGTH), parts, /[[:space:]]+/)
        name = parts[n]
        if (files[name] - seen[FILENAME, name] == 0) {
          printf "%s:%d: %s\n", FILENAME, FNR, name
          unused++
        }
      }
      END { printf "%d public items named in no other file\n", unused }
    ' - "${decls[@]}"
