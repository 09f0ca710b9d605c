#!/usr/bin/env bash
# The perf gate: every workload of BENCHMARK.json, run at the pinned seed
# for 5 s once untraced (end-to-end metrics) and once traced (per-layer
# metrics), must pass perfbench's own output checks and hold every floor
# in perf_floors.json.
#
#   ci/perfbench_gate.sh
#
# Needs cargo and jq. Writes the six result lines, each tagged with its
# workload and trace setting, to perfbench_results.jsonl in the
# repository root. Exits 1 when a run fails a pin, digest or replay check,
# a floored metric is missing or not a finite number, or a metric is
# below its floor. A breach prints the workload's traced per-layer
# metrics, so the log shows which layer moved.
set -euo pipefail
cd "$(dirname "$0")/.."

floors=perf_floors.json
results=perfbench_results.jsonl
perfbench=(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --)

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
: >"$results"
status=0
fail() {
  echo "FAIL $*"
  status=1
}

unknown=$(jq -r --slurpfile spec BENCHMARK.json \
  'keys[] | select(. as $w | $spec[0].workloads | map(.name) | index($w) | not)' "$floors")
for workload in $unknown; do
  fail "$workload: floored in $floors but not a workload of BENCHMARK.json"
done

for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
  metrics='{}'
  traced='{}'
  for trace in 0 1; do
    echo "--- perfbench $workload --trace $trace"
    if ! out=$("${perfbench[@]}" --workload "$workload" --seed 1 --seconds 5 --trace "$trace"); then
      fail "$workload --trace $trace: perfbench exited non-zero (a pin, digest or replay check failed)"
    fi
    line=$(printf '%s\n' "$out" | tail -n 1)
    if ! jq -e '.metrics | type == "object"' <<<"$line" >/dev/null 2>&1; then
      fail "$workload --trace $trace: no result line"
      continue
    fi
    echo "$line" | jq -c --arg w "$workload" --argjson t "$trace" '{workload: $w, trace: $t} + .' >>"$results"
    values=$(jq -c '.metrics | map_values(.value)' <<<"$line")
    metrics=$(jq -cn --argjson a "$metrics" --argjson b "$values" '$a + $b')
    if [ "$trace" = 1 ]; then
      traced=$values
    fi
  done

  # One line per floor of this workload that does not hold; no floors
  # at all is itself a failure.
  breaches=$(jq -r --arg w "$workload" --argjson m "$metrics" '
    if (.[$w] | type) != "object" or (.[$w] | length) == 0 then
      "\($w): no floors in perf_floors.json"
    else
      .[$w] | to_entries[] | .key as $k | .value as $floor | $m[$k] as $v |
      if ($floor | type) != "number" or $floor <= 0 then
        "\($w) \($k): floor \($floor) is not a positive number"
      elif ($m | has($k) | not) then
        "\($w) \($k): missing from the perfbench output (floor \($floor))"
      elif ($v | type) != "number" then
        "\($w) \($k): value \($v) is not a finite number (floor \($floor))"
      elif $v < $floor then
        "\($w) \($k): value \($v) is below its floor \($floor)"
      else
        empty
      end
    end' "$floors")
  if [ -n "$breaches" ]; then
    while IFS= read -r breach; do
      fail "$breach"
    done <<<"$breaches"
    echo "  traced per-layer metrics of $workload:"
    jq -r 'to_entries[] | "    \(.key) \(.value)"' <<<"$traced"
  else
    echo "ok $workload: $(jq -rn --arg w "$workload" --argjson m "$metrics" --slurpfile f "$floors" \
      '$f[0][$w] | to_entries | map("\(.key) \($m[.key]) >= \(.value)") | join(", ")')"
  fi
done

exit "$status"
