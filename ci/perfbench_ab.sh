#!/usr/bin/env bash
# Compares two perfbench binaries on one workload by alternating pairs of
# runs: pair i runs the parent first when i is odd and the change first
# when it is even. For every end-to-end metric of BENCHMARK.json it
# prints each side's median and quartiles and how many pairs the change
# won (ties count for neither side), the figures a claimed gain is judged
# by: at least nine tenths of the pairs won, and a median gap wider than
# the parent's interquartile range.
#
#   ci/perfbench_ab.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SECONDS [SEED [TRACE]]
#
# TRACE 1 runs both sides with `--trace 1` and tabulates the per_layer
# metrics of BENCHMARK.json the same way instead, leaving out the layers
# the workload never calls (0 on every run). TRACE defaults to 0.
#
# Build each side's binary into its own target directory first, e.g.
#   CARGO_TARGET_DIR=/tmp/pb-parent cargo build --release --offline \
#       --manifest-path perfbench/Cargo.toml
# SEED defaults to 1, the pinned one. Needs jq. Each run's result line
# goes to stderr as it lands. Informational: it gates nothing, and exits
# non-zero only on a usage error or a run that printed no result line (a
# run whose output check failed still counts, and its `failed` count is
# printed).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 5 || $# -gt 7 ]]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SECONDS [SEED [TRACE]]" >&2
  exit 2
fi
parent=$1
change=$2
workload=$3
pairs=$4
seconds=$5
seed=${6:-1}
trace=${7:-0}
for bin in "$parent" "$change"; do
  if [[ ! -x $bin ]]; then
    echo "$bin is not an executable" >&2
    exit 2
  fi
done
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
  echo "PAIRS must be a positive integer, got $pairs" >&2
  exit 2
fi
case $trace in
  0) metrics=end_to_end ;;
  1) metrics=per_layer ;;
  *)
    echo "TRACE must be 0 or 1, got $trace" >&2
    exit 2
    ;;
esac

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

# Runs one side and appends {"side": ..., "pair": ..., result line} to $runs.
run() {
  local side=$1 bin=$2 pair=$3 line
  line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
    2>/dev/null | tail -n 1) || true
  if [[ -z $line ]] || ! jq -e '.metrics | type == "object"' <<<"$line" >/dev/null 2>&1; then
    echo "$side run of pair $pair printed no result line" >&2
    exit 1
  fi
  echo "pair $pair $side: $line" >&2
  jq -c --arg side "$side" --argjson pair "$pair" '{side: $side, pair: $pair} + .' \
    <<<"$line" >>"$runs"
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then
    run parent "$parent" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run parent "$parent" "$i"
  fi
done

echo "$workload: $pairs alternating pairs of ${seconds} s at seed $seed, trace $trace"
jq -rs --slurpfile spec BENCHMARK.json --arg metrics "$metrics" '
  # Linear-interpolated quantile of a non-empty array.
  def quantile($p):
    sort as $s | ($s | length) as $n | (($n - 1) * $p) as $h | ($h | floor) as $lo
    | $s[$lo] + ($h - $lo) * ($s[[$lo + 1, $n - 1] | min] - $s[$lo]);
  # Three decimals, six below 1 (set-up times are fractions of a ms).
  def fmt: (if . < 1 and . > -1 then 1e6 else 1e3 end) as $k | . * $k | round / $k | tostring;
  def pad($n): tostring | if length < $n then . + (" " * ($n - length)) else . end;
  def row: "\(.[0] | pad(36)) \(.[1] | pad(7)) \(.[2] | pad(40)) \(.[3] | pad(40)) \(.[4])";
  . as $runs
  | ($runs | map(select(.side == "parent"))) as $p
  | ($runs | map(select(.side == "change"))) as $c
  | "failed runs: parent \($p | map(select(.failed > 0)) | length), change \($c | map(select(.failed > 0)) | length)",
    (["metric", "better", "parent q1 / median / q3", "change q1 / median / q3", "change wins"] | row),
    ($spec[0][$metrics][] as $m
     | ($p | map(.metrics[$m.name].value)) as $pv
     | ($c | map(.metrics[$m.name].value)) as $cv
     | select($metrics == "end_to_end" or ($pv + $cv | any(. != 0)))
     | [range(0; $pv | length)
        | select(if $m.better == "higher" then $cv[.] > $pv[.] else $cv[.] < $pv[.] end)]
       | length as $wins
     | [$m.name, $m.better,
        "\($pv | quantile(0.25) | fmt) / \($pv | quantile(0.5) | fmt) / \($pv | quantile(0.75) | fmt)",
        "\($cv | quantile(0.25) | fmt) / \($cv | quantile(0.5) | fmt) / \($cv | quantile(0.75) | fmt)",
        "\($wins)/\($pv | length)"]
     | row)
' "$runs"
