#!/usr/bin/env sh
# The quick golden manifest: every simulated number a quick run of the
# figure farm and the throughput benchmark produces, one line each.
#
#   scripts/goldens.sh print   recompute the manifest and write it to stdout
#   scripts/goldens.sh check   recompute it and diff it against
#                              goldens/quick.sha256; exits 1 on any change
#
# A line is `<digest>  <command>`: the sha256 of the command's CSV for each
# of the 16 `runplan` plans (at two threads, and fig4 at one thread too),
# and the `RunResult` hash of `perf_baseline --quick` on the torus and the
# crossbar. Run from the repository root after `cargo build --release`
# (BIN overrides the directory holding `runplan` and `perf_baseline`).
# A deliberate change of simulated numbers re-pins the manifest with
# `scripts/goldens.sh print > goldens/quick.sha256`; nothing else should.
set -eu

BIN=${BIN:-target/release}
MANIFEST=goldens/quick.sha256

print() {
    for plan in $("$BIN/runplan" list); do
        for threads in 2 1; do
            [ "$threads" = 1 ] && [ "$plan" != fig4 ] && continue
            args="$plan --quick --seeds 1 --threads $threads --format csv"
            # shellcheck disable=SC2086 # $args is split on purpose
            digest=$("$BIN/runplan" $args | sha256sum | cut -d' ' -f1)
            echo "$digest  runplan $args"
        done
    done
    out=$(mktemp)
    for fabric in torus xbar; do
        args="--quick --threads 1 --fabric $fabric"
        # shellcheck disable=SC2086
        "$BIN/perf_baseline" $args --out "$out" >/dev/null 2>&1 || true
        hash=$(sed -n 's/.*"result_hash": "\(0x[0-9a-f]*\)".*/\1/p' "$out")
        [ -n "$hash" ] || { echo "perf_baseline $args wrote no result_hash" >&2; rm -f "$out"; exit 1; }
        echo "$hash  perf_baseline $args"
    done
    rm -f "$out"
}

case "${1:-}" in
print)
    print
    ;;
check)
    actual=$(mktemp)
    print >"$actual"
    if diff -u "$MANIFEST" "$actual"; then
        echo "goldens: all $(wc -l <"$MANIFEST") lines of $MANIFEST match"
        rm -f "$actual"
    else
        rm -f "$actual"
        echo "goldens: simulated output differs from $MANIFEST (re-pin only for an intentional simulation-semantics change)" >&2
        exit 1
    fi
    ;;
*)
    echo "usage: scripts/goldens.sh check|print" >&2
    exit 2
    ;;
esac
