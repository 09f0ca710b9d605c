#!/usr/bin/env bash
# Prints the workspace's non-test line count: every `.rs` file under
# crates/*/src, src and examples, each counted only up to its first
# `#[cfg(test)]` line, skipping the test-only `reference.rs` modules.
# Informational: it gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src src examples -name '*.rs' ! -name reference.rs -print0 \
  | sort -z \
  | xargs -0 awk '
      FNR == 1 { counting = 1 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
      counting { total++ }
      END { print total + 0 }
    ' \
  | awk '{ sum += $1 } END { print sum + 0 }'
