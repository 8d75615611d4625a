#!/bin/sh
# Runs the whole benchmark twice on this commit and compares the two
# result.json files: every end-to-end metric must agree within its bound
# from BENCHMARK.json, every exact simulated statistic must be identical,
# and no operation may have failed. Exits non-zero otherwise.
#
#   benchmark/check_repeat.sh [--quick] [--seed S] [--seconds T]
#
# --quick (sizes / 10, 1 s of timed passes) finishes in about a minute and
# is meant for a CI hook; quick passes are too short for the bounds to mean
# much, so there only correctness and the exact statistics are enforced.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
out="$here/out"
manifest="$here/Cargo.toml"

cargo build --release --quiet --manifest-path "$manifest"
for side in a b; do
    cargo run --release --quiet --manifest-path "$manifest" -- run "$@" || {
        echo "check_repeat: run $side failed" >&2
        exit 1
    }
    mv "$out/result.json" "$out/result_$side.json"
done

python3 - "$here/../BENCHMARK.json" "$out/result_a.json" "$out/result_b.json" <<'PY'
import json, sys

manifest, a, b = (json.load(open(p)) for p in sys.argv[1:4])
bad = []
for name, wa in a["workloads"].items():
    wb = b["workloads"][name]
    for side, w in (("a", wa), ("b", wb)):
        for mode in ("end_to_end", "per_layer"):
            if not w[mode]["correct"] or w[mode]["failed"]:
                bad.append(f"{name}: run {side} {mode}: {w[mode]['failed']} of "
                           f"{w[mode]['attempted']} ops failed")
    for m in manifest["end_to_end"]:
        va = wa["end_to_end"]["metrics"][m["name"]]["value"]
        vb = wb["end_to_end"]["metrics"][m["name"]]["value"]
        worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
        # Either run may be the slow one: the two are the same commit.
        off = abs(worse)
        verdict = "ok" if off <= m["bound"] or a["quick"] else "OUT OF BOUND"
        print(f"{name:22s} {m['name']:14s} {va:14.6g} {vb:14.6g} {off:7.2%} "
              f"(bound {m['bound']:.0%}) {verdict}")
        if verdict != "ok":
            bad.append(f"{name}: {m['name']} differs by {off:.2%} > {m['bound']:.0%}")
    for stat in a["exact"]:
        va = wa["per_layer"]["metrics"][stat]["value"]
        vb = wb["per_layer"]["metrics"][stat]["value"]
        if va != vb:
            bad.append(f"{name}: exact statistic {stat} differs: {va} vs {vb}")
for line in bad:
    print("check_repeat:", line, file=sys.stderr)
sys.exit(1 if bad else 0)
PY
echo "check_repeat: the two runs agree"
