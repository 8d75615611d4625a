#!/bin/sh
# Same-machine A/B of the repo benchmark: a parent revision against this
# working tree, as alternating pairs of runs.
#
#   scripts/ab.sh <parent-rev> [workload...]      > BENCH_<pr>.json
#
# `git archive`s <parent-rev> into a scratch directory, builds each side's
# benchmark/ package into a CARGO_TARGET_DIR of its own, then per workload
# (default: all of BENCHMARK.json) runs AB_PAIRS alternating pairs of
# `run --workload W --seed S --trace 0`, parent first on even pairs and
# change first on odd ones. Per end-to-end metric it reports each side's
# median and quartiles and the pairs the change won, and applies the
# repo's rule: a gain needs >= 9/10 of the pairs and a median shift larger
# than the parent's interquartile spread; a regression is a median worse
# than the parent's by more than the metric's bound. JSON goes to stdout,
# progress to stderr.
#
# Environment:
#   AB_PAIRS  pairs per workload (default 10, the minimum the rule accepts)
#   AB_SEED   workload seed (default 45223, the benchmark's own default)
#   AB_TRACE  workload to run once more per side with --trace 1, recording
#             every per-layer metric ("" for none; default torus16_patch)
#   AB_DIR    scratch directory (default ${TMPDIR:-/tmp}/patchsim-ab)
set -eu

[ $# -ge 1 ] || { echo "usage: scripts/ab.sh <parent-rev> [workload...]" >&2; exit 2; }
rev=$1
shift
root=$(cd "$(dirname "$0")/.." && pwd)
pairs=${AB_PAIRS:-10}
seed=${AB_SEED:-45223}
trace=${AB_TRACE-torus16_patch}
dir=${AB_DIR:-${TMPDIR:-/tmp}/patchsim-ab}

sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
# The change side is named by HEAD and, when the tree is not clean, a hash
# of every uncommitted edit and untracked file, taken before the build.
change=$(git -C "$root" rev-parse HEAD)
if [ -n "$(git -C "$root" status --porcelain)" ]; then
    edits=$(cd "$root" && { git diff --binary HEAD
        git ls-files -z --others --exclude-standard | xargs -0 -r sha256sum; } |
        sha256sum | cut -c1-16)
    change="$change+edits.$edits"
fi
rm -rf "$dir/parent" "$dir/runs"
mkdir -p "$dir/parent" "$dir/runs"
git -C "$root" archive "$sha" | tar -x -C "$dir/parent"

# The farm workload builds `runplan` from its side's root workspace into
# CARGO_TARGET_DIR, so the variable must be set for runs as well as builds.
for side in parent change; do
    [ "$side" = parent ] && src=$dir/parent || src=$root
    echo "ab: building $side ($src)" >&2
    CARGO_TARGET_DIR="$dir/$side-target" cargo build --release --quiet \
        --manifest-path "$src/benchmark/Cargo.toml"
done

run() { # side workload trace-flag out-file
    CARGO_TARGET_DIR="$dir/$1-target" "$dir/$1-target/release/patchsim-benchmark" \
        run --workload "$2" --seed "$seed" --trace "$3" >"$4"
}

[ $# -gt 0 ] || set -- $(python3 -c '
import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))
' "$root/BENCHMARK.json")

for w in "$@"; do
    i=0
    while [ "$i" -lt "$pairs" ]; do
        [ $((i % 2)) -eq 0 ] && order="parent change" || order="change parent"
        for side in $order; do
            echo "ab: $w pair $((i + 1))/$pairs $side" >&2
            run "$side" "$w" 0 "$dir/runs/$w.$i.$side.txt"
        done
        i=$((i + 1))
    done
    if [ "$w" = "$trace" ]; then
        for side in parent change; do
            echo "ab: $w traced $side" >&2
            run "$side" "$w" 1 "$dir/runs/$w.traced.$side.txt"
        done
    fi
done

python3 - "$root/BENCHMARK.json" "$dir/runs" "$sha" "$change" "$seed" "$pairs" "$@" <<'PY'
import json, os, re, statistics, sys

manifest = json.load(open(sys.argv[1]))
runs, parent_sha, change_sha, seed, pairs = sys.argv[2:7]
pairs = int(pairs)
SIDES = ("parent", "change")


def read(path):
    """The result line plus the `# name = value unit` statistics above it."""
    lines = open(path).read().splitlines()
    exact = {}
    for line in lines:
        head, eq, rest = line.partition(" = ")
        if line.startswith("# ") and eq and " " not in head[2:]:
            exact[head[2:]] = rest.split()[0]
    return json.loads(lines[-1]), exact


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


out = {
    "bench": "ab",
    "parent": parent_sha,
    "change": change_sha,
    "seed": int(seed),
    "pairs": pairs,
    "host_threads": os.cpu_count(),
    "rule": "gain: change wins >= 9/10 of pairs (ties count for neither) and the medians "
            "differ by more than the parent's q3-q1; regression: median worse than the "
            "parent's by more than the bound; unresolved: parent q3-q1 wider than the bound "
            "and not every change run better than every parent run",
    "workloads": {},
}
for w in sys.argv[7:]:
    results = {s: [read(f"{runs}/{w}.{i}.{s}.txt") for i in range(pairs)] for s in SIDES}
    entry = {
        "failed": {s: sum(r["failed"] for r, _ in results[s]) for s in SIDES},
        "attempted": {s: sum(r["attempted"] for r, _ in results[s]) for s in SIDES},
        "correct": {s: all(r["correct"] for r, _ in results[s]) for s in SIDES},
        "exact": {s: results[s][0][1] for s in SIDES},
        "exact_repeats": {s: all(e == results[s][0][1] for _, e in results[s]) for s in SIDES},
        "metrics": {},
    }
    for m in manifest["end_to_end"]:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        p, c = ([r["metrics"][name]["value"] for r, _ in results[s]] for s in SIDES)
        won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        lost = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        ps, cs = summary(p), summary(c)
        shift = sign * (cs["median"] - ps["median"])
        iqr = ps["q3"] - ps["q1"]
        separated = all(sign * (b - a) > 0 for a in p for b in c)
        if won * 10 >= 9 * pairs and shift > iqr:
            verdict = "gain"
        elif -shift > m["bound"] * ps["median"]:
            verdict = "regression"
        elif iqr > m["bound"] * ps["median"] and not separated:
            verdict = "unresolved"
        else:
            verdict = "no regression"
        entry["metrics"][name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": ps, "change": cs,
            "change_over_parent": cs["median"] / ps["median"],
            "pairs_won": won, "pairs_lost": lost, "verdict": verdict,
        }
        print(f"ab: {w:22s} {name:14s} parent {ps['median']:12.6g} [{ps['q1']:.6g}, {ps['q3']:.6g}]"
              f"  change {cs['median']:12.6g} [{cs['q1']:.6g}, {cs['q3']:.6g}]"
              f"  x{cs['median'] / ps['median']:.3f}  won {won}/{pairs}  {verdict}", file=sys.stderr)
    traced = {s: f"{runs}/{w}.traced.{s}.txt" for s in SIDES}
    if all(os.path.exists(t) for t in traced.values()):
        entry["traced"] = {s: {k: v["value"] for k, v in read(t)[0]["metrics"].items()}
                           for s, t in traced.items()}
    out["workloads"][w] = entry
# One line per list: ten runs read better side by side than one per line.
print(re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + " ".join(m[1].split()) + "]",
             json.dumps(out, indent=1)))
PY
