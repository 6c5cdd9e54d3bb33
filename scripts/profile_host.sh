#!/usr/bin/env bash
# Inline-aware host profiler: where does a command spend its host CPU time?
#
#   scripts/profile_host.sh <command...>
#
# Builds scripts/pc_sampler.c with the system gcc into build-prof/, runs
# the command with the sampler LD_PRELOADed (ITIMER_PROF, 1000 samples
# per CPU-second), then folds every sampled PC through
# `addr2line -a -f -i -C`, which expands inlined frames. Prints three
# tables after the command's own output, 25 rows each:
#
#   innermost  the function whose code the PC was in, even when it was
#              inlined into another (self time)
#   outermost  the out-of-line function containing the PC (what the
#              symbol table, and so gprof, would name)
#   line       source file:line of the innermost frame
#
# It profiles the unmodified optimized binary, so build with line tables
# (the default RelWithDebInfo does). A gprof -pg build misattributes this
# code base: it charges a coroutine actor or a local clone to the symbol
# before it, so W1Worker's actor reads as RunW2DistributiveAggregation
# and `AccessScalar [clone .part.0]` as MemSystem::MemSystem. Child
# processes that exec are sampled too and folded together; samples land
# in build-prof/run. The exit status is the command's.
#
# Example:
#   scripts/profile_host.sh .bench_build/perfbench/perfbench \
#       --workload=serve_storage_rw --seed=1 --seconds=5 --trace=0
set -euo pipefail

if [[ $# -eq 0 ]]; then
  echo "usage: $0 <command...>" >&2
  exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/build-prof
dir=$out/run
mkdir -p "$dir"
rm -f "$dir"/samples.*
gcc -O2 -shared -fPIC -DSAMPLE_DIR="\"$dir\"" -o "$out/pc_sampler.so" \
    "$root/scripts/pc_sampler.c" -ldl

status=0
LD_PRELOAD=$out/pc_sampler.so "$@" || status=$?

python3 - "$dir" "$root/" <<'PY'
import collections
import os
import re
import subprocess
import sys

HZ = 1000  # pc_sampler.c's kHz
TOP = 25
sample_dir, root = sys.argv[1], sys.argv[2]
by_obj = collections.defaultdict(collections.Counter)
for name in sorted(os.listdir(sample_dir)):
    if name.startswith("samples."):
        with open(os.path.join(sample_dir, name)) as f:
            for line in f:
                obj, addr = line.rstrip("\n").rsplit(" ", 1)
                by_obj[obj][int(addr, 16)] += 1

inner, outer, lines = (collections.Counter() for _ in range(3))
for obj, addrs in sorted(by_obj.items()):
    frames = collections.defaultdict(list)  # addr -> [(func, file:line)]
    if os.path.isfile(obj):
        # -a prints each address before its frames, innermost first.
        res = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
            input="\n".join(hex(a) for a in sorted(addrs)),
            capture_output=True, text=True).stdout.splitlines()
        cur, i = None, 0
        while i < len(res):
            if re.fullmatch(r"0x[0-9a-f]+", res[i]):
                cur, i = int(res[i], 16), i + 1
            else:
                frames[cur].append((res[i], res[i + 1] if i + 1 < len(res) else "??:0"))
                i += 2
    unknown = "?? (%s)" % os.path.basename(obj)
    for addr, count in addrs.items():
        fr = [(f if f != "??" else unknown, loc) for f, loc in frames[addr]]
        fr = fr or [(unknown, "??:0")]
        inner[fr[0][0]] += count
        outer[fr[-1][0]] += count
        loc = re.sub(r" \(discriminator \d+\)", "", fr[0][1])
        path, _, num = loc.rpartition(":")
        lines[os.path.normpath(path).replace(root, "") + ":" + num] += count

total = sum(inner.values())
print("\n== host profile: %d samples at %d Hz (%.2f CPU-s) ==" %
      (total, HZ, total / float(HZ)))
for title, table in (("innermost function (self, inlined frames named)", inner),
                     ("outermost function (out-of-line symbol)", outer),
                     ("source line (innermost frame)", lines)):
    print("\n-- %s --" % title)
    for key, count in table.most_common(TOP):
        key = key if len(key) <= 120 else key[:117] + "..."
        print("%6.2f%% %8d  %s" % (100.0 * count / max(total, 1), count, key))
PY
exit "$status"
