#!/usr/bin/env bash
# Smoke test of the benchmark: every workload with a 2 s window, plus one
# traced run, each asserted to exit 0, fail no op, and print a result line that
# carries exactly the metrics BENCHMARK.json declares. The script a later PR
# wires into CI. Run from anywhere; needs cargo and python3.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

check() { # check <workload> <trace 0|1>
    local out
    out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$1" --seed 42 --seconds 2 --trace "$2") || {
        echo "FAIL $1 (trace $2): exit $?" >&2
        exit 1
    }
    RESULT=$(tail -n 1 <<<"$out") WORKLOAD=$1 TRACE=$2 python3 - <<'EOF'
import json, os, sys
contract = json.load(open("BENCHMARK.json"))
result = json.loads(os.environ["RESULT"])
assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
assert result["correct"] is True and result["failed"] == 0, result["failed"]
assert isinstance(result["attempted"], int) and result["attempted"] >= 1
declared = contract["per_layer" if os.environ["TRACE"] == "1" else "end_to_end"]
assert set(result["metrics"]) == {m["name"] for m in declared}, "metric names differ from BENCHMARK.json"
for m in declared:
    got = result["metrics"][m["name"]]
    assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], (m["name"], got)
    assert isinstance(got["value"], (int, float)), (m["name"], got)
print(f"ok   {os.environ['WORKLOAD']:<17} trace {os.environ['TRACE']}  "
      f"{result['attempted']} ops, {len(result['metrics'])} metrics")
EOF
}

for workload in serve_closed engine_read engine_ingest engine_mixed campaign_offline; do
    check "$workload" 0
done
check serve_closed 1
test -s benchmark/out/trace-serve_closed.json
echo "smoke: all workloads passed"
