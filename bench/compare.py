"""Compare two sets of benchmark result records.

    python3 bench/compare.py OLD NEW

OLD and NEW are each a result record written by run.py (under
.bench_out/) or a directory of them.  Records of one workload are pooled
and each metric's median is compared: one row per workload and metric,
with the ratio NEW/OLD.  An end-to-end metric that got worse by more than
its bound in BENCHMARK.json is flagged; per-layer metrics have no bound.
Exits 1 when any metric crossed its bound.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path) if f.startswith("result-") and f.endswith(".json"))
    values = defaultdict(list)
    for f in files:
        with open(f, encoding="utf-8") as fh:
            rec = json.load(fh)
        for block in ("untraced", "traced"):
            for name, v in rec.get(block, {}).items():
                values[(rec["workload"], name)].append(v)
    return values


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old, new = load(argv[0]), load(argv[1])
    crossed = 0
    print("%-16s %-32s %14s %14s %8s  %s" % ("workload", "metric", "old", "new", "new/old", "flag"))
    for key in sorted(set(old) & set(new)):
        a, b = statistics.median(old[key]), statistics.median(new[key])
        ratio = b / a if a else float("nan") if b else 1.0
        flag = ""
        m = bounds.get(key[1])
        if m is not None and a:
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            if worse > m["bound"]:
                flag = "WORSE than bound %.2f" % m["bound"]
                crossed += 1
        print("%-16s %-32s %14.6g %14.6g %8.3f  %s" % (key[0], key[1], a, b, ratio, flag))
    for key in sorted(set(old) ^ set(new)):
        print("%-16s %-32s only in %s" % (key[0], key[1], "OLD" if key in old else "NEW"))
    return 1 if crossed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
