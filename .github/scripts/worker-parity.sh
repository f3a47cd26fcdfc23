#!/bin/sh
# Worker-count parity for one workload: run it serially and on WORKERS
# processes, byte-diff the two outputs, and validate the obs artifacts
# of the parallel run (its trace and metrics hold the merged worker
# deltas).
#
#   sh .github/scripts/worker-parity.sh fig12|dataset|netsim WORKERS
#
# Everything lands in the current directory: $WORKLOAD-w1* and
# $WORKLOAD-w$WORKERS* (stdout, corpus or matrix JSON), plus
# trace-$WORKLOAD.jsonl and metrics-$WORKLOAD.json. The netsim leg also
# writes the serial run's metrics-netsim-w1.json and requires its
# counters to equal the merged counters of the parallel run.
set -eu

usage="usage: worker-parity.sh fig12|dataset|netsim WORKERS"
workload=${1:?$usage}
workers=${2:?$usage}
obs="--trace trace-$workload.jsonl --metrics-out metrics-$workload.json"
check="python -m repro.obs.check --trace trace-$workload.jsonl --metrics metrics-$workload.json"

case "$workload" in
  fig12)
    python -m repro run fig12 --trials 2 > fig12-w1.txt
    python -m repro run fig12 --trials 2 --workers "$workers" $obs > "fig12-w$workers.txt"
    diff fig12-w1.txt "fig12-w$workers.txt"
    $check --min-subsystems 4 --min-metrics 15 --require-nesting
    ;;
  dataset)
    grid="--scenes clear,furnished,blocked --distances 2.0,4.0 --fault-rates 0.0,0.2"
    grid="$grid --trials 2 --seed 42 --bins 48 --rows-per-shard 8 --block-rows 8"
    python -m repro dataset generate --out dataset-w1 $grid --workers 1
    python -m repro dataset generate --out "dataset-w$workers" $grid \
      --workers "$workers" --heartbeat 1 $obs
    diff dataset-w1/manifest.json "dataset-w$workers/manifest.json"
    for shard in dataset-w1/shard-*.npz; do
      cmp "$shard" "dataset-w$workers/$(basename "$shard")"
    done
    python -m repro dataset verify --out dataset-w1
    python -m repro dataset verify --out "dataset-w$workers"
    $check --min-subsystems 3 --min-metrics 10 --require-nesting
    ;;
  netsim)
    matrix="--scenarios all --seed 0"
    python -m repro netsim matrix $matrix --workers 1 --json netsim-w1.json \
      --metrics-out metrics-netsim-w1.json
    python -m repro netsim matrix $matrix --workers "$workers" \
      --json "netsim-w$workers.json" $obs
    diff netsim-w1.json "netsim-w$workers.json"
    $check --min-subsystems 2 --min-metrics 8
    # Every counter but the pool's own (parallel.*) and the spans'
    # (span.*) must read the same serially and merged from the workers.
    python - metrics-netsim-w1.json "metrics-$workload.json" <<'EOF'
import json
import sys


def counters(path):
    with open(path, encoding="utf-8") as f:
        metrics = json.load(f)["metrics"]
    return {
        name: metric["value"]
        for name, metric in metrics.items()
        if metric["type"] == "counter"
        and not name.startswith(("parallel.", "span."))
    }


serial, merged = counters(sys.argv[1]), counters(sys.argv[2])
differ = sorted(
    name for name in serial.keys() | merged.keys()
    if serial.get(name) != merged.get(name)
)
for name in differ:
    print(f"{name}: {serial.get(name)} serial, {merged.get(name)} merged", file=sys.stderr)
if differ or not serial:
    sys.exit(1)
print(f"{len(serial)} counters equal serially and merged")
EOF
    ;;
  *)
    echo "$usage" >&2
    exit 2
    ;;
esac
