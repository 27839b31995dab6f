#!/usr/bin/env bash
# Collects the per-PR perf snapshot: runs the six perf benches
# (bench_distance_micro, bench_multi_drone_streaming,
# bench_interaction_dialogue, bench_fleet_coordination, bench_journal_replay,
# bench_telemetry_overhead) with --json and merges their outputs into one
# BENCH_<pr>.json at the repo root, so the perf trajectory is
# machine-readable per PR. Schema: docs/PERFORMANCE.md.
#
# Usage: scripts/collect_bench.sh [--build-dir DIR] [--out FILE] [--smoke] [--reuse]
#   --build-dir DIR  where the bench executables live (default: build)
#   --out FILE       merged snapshot path (default: BENCH_10.json at repo root)
#   --smoke          pass --smoke to the benches that support it (CI-sized runs)
#   --reuse          skip running a bench whose per-bench JSON already exists
#                    in the build dir (CI runs some benches in earlier steps)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="$repo_root/build"
out_file="$repo_root/BENCH_10.json"
smoke=""
reuse=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) build_dir="$2"; shift 2 ;;
    --out)       out_file="$2";  shift 2 ;;
    --smoke)     smoke="--smoke"; shift ;;
    --reuse)     reuse=1; shift ;;
    *) echo "usage: $0 [--build-dir DIR] [--out FILE] [--smoke] [--reuse]" >&2
       exit 2 ;;
  esac
done
[[ "$build_dir" = /* ]] || build_dir="$repo_root/$build_dir"

# bench name -> extra flags.
run_bench() {
  local name="$1"; shift
  local json="$build_dir/$name.json"
  if [[ $reuse -eq 1 && -s "$json" ]]; then
    echo "reusing $json"
    return 0
  fi
  if [[ ! -x "$build_dir/$name" ]]; then
    echo "error: $build_dir/$name not built (cmake --build $build_dir)" >&2
    exit 1
  fi
  echo "running $name $*..."
  (cd "$build_dir" && "./$name" "$@" --json "$name.json")
}

run_bench bench_distance_micro ${smoke:+$smoke}
run_bench bench_multi_drone_streaming ${smoke:+$smoke} --trace bench_streaming_trace.json
run_bench bench_interaction_dialogue ${smoke:+$smoke}
run_bench bench_fleet_coordination ${smoke:+$smoke}
run_bench bench_journal_replay ${smoke:+$smoke}
run_bench bench_telemetry_overhead ${smoke:+$smoke}

python3 - "$build_dir" "$out_file" <<'PY'
import json, pathlib, sys

build_dir, out_file = map(pathlib.Path, sys.argv[1:3])
benches = {}
for name in ("bench_distance_micro", "bench_multi_drone_streaming", "bench_interaction_dialogue",
             "bench_fleet_coordination", "bench_journal_replay",
             "bench_telemetry_overhead"):
    with open(build_dir / f"{name}.json") as fh:
        payload = json.load(fh)
    benches[payload.pop("bench", name.removeprefix("bench_"))] = payload

hardware_threads = next((p["hardware_threads"] for p in benches.values()
                         if "hardware_threads" in p), None)

# Surface the shard-scaling curve at the top level so a reader (or a trend
# script) gets it next to hardware_threads without digging through
# per-bench cells.
shard_scaling = [
    {"streams": c["streams"], "shards": c["shards"],
     "aggregate_fps": c["aggregate_fps"], "p99_ms": c["p99_ms"]}
    for c in benches.get("multi_drone_streaming", {}).get("cells", [])
    if "shards" in c
]
# Surface the telemetry story at the top level: the streaming bench's
# per-stage latency summary (telemetry ON for every cell) plus the
# overhead gate's verdict. Schema 3 added this block; schema 4 adds the
# traced overhead column and the causal-tracing artifacts
# (tail_attribution + health from the streaming bench's traced cell);
# schema 5 drops worker_scaling with the batch-throughput bench.
telemetry = {
    "stages": benches.get("multi_drone_streaming", {}).get(
        "telemetry", {}).get("stages", []),
    "counters": benches.get("multi_drone_streaming", {}).get(
        "telemetry", {}).get("counters", []),
    "overhead_pct": benches.get("telemetry_overhead", {}).get("overhead_pct"),
    "traced_overhead_pct": benches.get("telemetry_overhead", {}).get(
        "traced_overhead_pct"),
    "overhead_gate_pct": benches.get("telemetry_overhead", {}).get("gate_pct"),
    "overhead_pass": benches.get("telemetry_overhead", {}).get("pass"),
}
# Tail-latency attribution of the streaming bench's traced (largest) cell:
# which stage dominated the worst frames behind the reported p99.
tail_attribution = benches.get("multi_drone_streaming", {}).pop(
    "tail_attribution", None)
health = benches.get("multi_drone_streaming", {}).pop("health", None)
snapshot = {
    "schema": 5,
    "snapshot": out_file.name,
    "generated_by": "scripts/collect_bench.sh",
    "hardware_threads": hardware_threads,
    "shard_scaling": shard_scaling,
    "telemetry": telemetry,
    "tail_attribution": tail_attribution,
    "health": health,
    "benches": benches,
}
out_file.write_text(json.dumps(snapshot, indent=2) + "\n")
print(f"wrote {out_file}")
PY
