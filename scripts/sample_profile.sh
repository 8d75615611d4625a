#!/bin/sh
# A sampling profiler for hosts without `perf`: where does a command's CPU
# time go, by function, inlined functions included.
#
#   scripts/sample_profile.sh <command...> > table.txt
#
# Builds a SIGPROF sampler with `cc`, LD_PRELOADs it into <command...> (and
# whatever it spawns; their stdout goes to stderr), and symbolises every
# sampled stack with `addr2line -f -i`. Two columns per function: `flat`,
# the share of samples whose innermost (possibly inlined) frame it is, and
# `incl`, the share of samples with it anywhere on the stack. Inlined
# frames need debug info, which the release profile omits; build what you
# profile with
#
#   CARGO_PROFILE_RELEASE_DEBUG=limited CARGO_TARGET_DIR=<scratch> \
#       cargo build --release ...
#
# (same code generation, a target directory of its own). Without it the
# table still resolves to whole functions from the symbol table. A test is
# profiled the same way, through its binary: for PATCH-All on the 512-node
# torus,
#
#   CARGO_PROFILE_RELEASE_DEBUG=limited CARGO_TARGET_DIR=<scratch> \
#       cargo test --release -p patchsim --test regression_races --no-run
#   scripts/sample_profile.sh <scratch>/release/deps/regression_races-<hash> \
#       --ignored --exact patch_all_completes_on_the_512_node_torus
#
# (`--no-run` prints the binary's path).
#
# Environment:
#   SAMPLE_TOP   rows printed per table (default 30)
#   SAMPLE_DIR   scratch directory (default ${TMPDIR:-/tmp}/patchsim-sample)
set -eu

[ $# -ge 1 ] || { echo "usage: scripts/sample_profile.sh <command...>" >&2; exit 2; }
dir=${SAMPLE_DIR:-${TMPDIR:-/tmp}/patchsim-sample}
mkdir -p "$dir"
rm -f "$dir"/samples.*

cat >"$dir/sampler.c" <<'C'
#define _GNU_SOURCE
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <unistd.h>
enum { MAX = 1 << 18, DEPTH = 32 };
static void *stacks[MAX][DEPTH];
static int depths[MAX], taken;
static void on_prof(int sig) {
    int i = __sync_fetch_and_add(&taken, 1);
    if (i < MAX) depths[i] = backtrace(stacks[i], DEPTH);
}
static int object(struct dl_phdr_info *o, size_t size, void *out) {
    fprintf(out, "object %lx %s\n", (unsigned long)o->dlpi_addr, o->dlpi_name);
    return 0;
}
__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    char path[4096], exe[4096] = {0};
    setitimer(ITIMER_PROF, &off, 0);
    snprintf(path, sizeof path, "%s.%d", getenv("SAMPLE_OUT"), (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out || readlink("/proc/self/exe", exe, sizeof exe - 1) < 0) return;
    fprintf(out, "exe %s\n", exe);
    dl_iterate_phdr(object, out);
    for (int i = 0; i < taken && i < MAX; i++) {
        /* frames 0 and 1 are on_prof and the signal trampoline */
        for (int f = 2; f < depths[i]; f++) fprintf(out, "%lx ", (unsigned long)stacks[i][f]);
        fputc('\n', out);
    }
    fclose(out);
}
__attribute__((constructor)) static void start(void) {
    /* 997 Hz: prime, so the samples do not beat with periodic work */
    struct itimerval every = {{0, 1000000 / 997}, {0, 1000000 / 997}};
    void *warm[2];
    if (!getenv("SAMPLE_OUT")) return;
    backtrace(warm, 2); /* loads the unwinder outside the handler */
    signal(SIGPROF, on_prof);
    setitimer(ITIMER_PROF, &every, 0);
}
C
cc -O2 -shared -fPIC -o "$dir/sampler.so" "$dir/sampler.c"

status=0
SAMPLE_OUT="$dir/samples" LD_PRELOAD="$dir/sampler.so" "$@" >&2 || status=$?

python3 - "${SAMPLE_TOP:-30}" "$dir"/samples.* <<'PY'
import collections, os, subprocess, sys

top, files = int(sys.argv[1]), sys.argv[2:]
flat, incl, total = collections.Counter(), collections.Counter(), 0
for path in files:
    lines = open(path).read().splitlines()
    exe = lines[0].split(" ", 1)[1]
    # (load bias, file) of every loaded object; the main program's name is "".
    objects = sorted(
        (int(l.split(" ", 2)[1], 16), l.split(" ", 2)[2] or exe)
        for l in lines if l.startswith("object ")
    )
    # A return address points past its call, so step back into it; the leaf
    # frame is the interrupted instruction itself.
    stacks = [
        [int(a, 16) - (i > 0) for i, a in enumerate(l.split())]
        for l in lines if l and not l.startswith(("exe ", "object "))
    ]
    by_object = collections.defaultdict(set)
    for addr in {a for s in stacks for a in s}:
        by_object[max((o for o in objects if o[0] <= addr), default=objects[0])].add(addr)
    chains = {}  # address -> function names, innermost inlined frame first
    for (bias, obj), addrs in by_object.items():
        unknown = f"??@{os.path.basename(obj)}"
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", obj] + [hex(a - bias) for a in addrs],
            capture_output=True, text=True,
        ).stdout.splitlines()
        # Per address: its `0x...` echo, then one function line and one
        # file:line line per (inlined) frame.
        for line in out:
            if line.startswith("0x"):
                chain, is_function = chains.setdefault(int(line, 16) + bias, []), True
            else:
                if is_function:
                    chain.append(unknown if line == "??" else line)
                is_function = not is_function
        for a in addrs:
            chains[a] = chains.get(a) or [unknown]
    for s in stacks:
        total += 1
        flat[chains[s[0]][0]] += 1
        incl.update({fn for a in s for fn in chains[a]})

print(f"# {total} samples from {len(files)} process(es)")
# Frames under every sample (runtime start-up, `main`) say nothing.
ranked = [fn for fn in incl if flat[fn] or incl[fn] < 0.98 * total]
for title, key in (("flat", flat), ("incl", incl)):
    print(f"# top {top} by {title}\n# {'flat':>5} {'incl':>6}  function")
    for fn in sorted(ranked, key=lambda fn: -key[fn])[:top]:
        print(f"  {100 * flat[fn] / total:5.1f}% {100 * incl[fn] / total:5.1f}%  {fn}")
PY
exit "$status"
