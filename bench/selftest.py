"""The benchmark's own tests.

    python3 bench/selftest.py

Checks that the output checks catch corrupted outputs (a wrong boundary
word, a wrong state sum, a wrong digest, a wrong exit code), that the
tracer's work counters repeat exactly and that it restores what it
wrapped, and that BENCHMARK.json names exactly the metrics run.py prints.
Exits 1 on the first test that fails.
"""

import json
import os
import re
import shutil
import sys

import checks
import run
import tracer as tracing
import workloads


class TestFailure(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise TestFailure(msg)


def sample(inputs, per_kind=3):
    """A few commands of every check kind, in list order."""
    seen = {}
    out = []
    for cmd in inputs.commands:
        kind = cmd.check[0]
        if kind in ("slice", "word"):
            kind += cmd.check[1]
        elif kind == "statesum":  # table, number of graphs, with or without moves
            kind += "%s-%d-%s" % (cmd.check[1], len(cmd.check[2]), bool(cmd.check[3]))
        if seen.get(kind, 0) < per_kind:
            seen[kind] = seen.get(kind, 0) + 1
            out.append(cmd)
    return out


def corruptions(cmd, out):
    """Wrong outputs that a correct check must reject."""
    kind = cmd.check[0]
    if kind == "slice":
        line = re.search(r"^boundary: (.*)$", out, re.M)
        wrong = "1" if line.group(1) != "1" else "a"
        yield "boundary word", out.replace("boundary: %s\n" % line.group(1), "boundary: %s\n" % wrong)
        yield "move count", out.replace("\nmoves,", "\nmoves,1")
    elif kind == "statesum":
        m = re.search(r"^state sum [^:]+: (.*)$", out, re.M)
        value = m.group(1)
        wrong = value + " + 1" if not value.lstrip("-").isdigit() else str(int(value) + 1)
        yield "state sum", out.replace(m.group(0), m.group(0)[: -len(value)] + wrong, 1)
        m = re.search(r"^move invariant: (.*)$", out, re.M)
        if m:
            yield "move invariant", out.replace(m.group(0), "move invariant: 0" if m.group(1) != "0" else "move invariant: 1")
        if "multiplicativity: PASS" in out:
            yield "multiplicativity", out.replace("multiplicativity: PASS", "multiplicativity: FAIL")
    elif kind in ("word", "residual"):
        first = out.split("\n", 1)[0]
        yield "word", out.replace(first, first + ("a" if not first.endswith("a") else "b"), 1)
    elif kind == "digest":
        first = out.split("\n", 1)[0]
        yield "first line", out.replace(first, first + "0", 1)
    else:
        yield "truncated", out[: len(out) // 2]


def test_checks_reject_corrupted_outputs(cli):
    for name in sorted(workloads.WORKLOADS):
        workdir = os.path.join(run.WORK_DIR, "selftest-%s-%d" % (name, os.getpid()))
        os.makedirs(workdir)
        cwd = os.getcwd()
        try:
            inputs = workloads.generate(name, 0, workdir)
            checker = checks.Checker(inputs)
            os.chdir(workdir)
            for cmd in sample(inputs):
                rc, out, _ = run.run_command(cli, cmd.argv)
                why = checker.check(cmd, rc, out)
                expect(why is None, "%s: correct output rejected: %s" % (" ".join(cmd.argv)[:80], why))
                expect(checker.check(cmd, rc + 1, out) is not None, "wrong exit code accepted")
                for what, bad in corruptions(cmd, out):
                    expect(bad != out, "corruption %r did not change %s" % (what, cmd.argv[:3]))
                    expect(
                        checker.check(cmd, rc, bad) is not None,
                        "corrupted %s accepted for %s" % (what, " ".join(cmd.argv)[:80]),
                    )
        finally:
            os.chdir(cwd)
            shutil.rmtree(workdir, ignore_errors=True)


def test_counters_repeat_and_uninstall_restores(cli):
    import smovelab.slicing as slicing
    import smovelab.words as words

    originals = (words.reduce, slicing.reduce, slicing.apply_move)
    counts = []
    for _ in range(2):
        workdir = os.path.join(run.WORK_DIR, "selftest-trace-%d" % os.getpid())
        os.makedirs(workdir)
        try:
            inputs = workloads.generate("slice_readout", 3, workdir)
            tr = tracing.Tracer()
            tr.install()
            expect(slicing.reduce is not originals[1], "from-import alias slicing.reduce was not rebound")
            try:
                for cmd in sample(inputs, per_kind=2):
                    tr.request += 1
                    run.run_command(cli, cmd.argv)
            finally:
                tr.uninstall()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        counts.append(tr.counters)
    expect(counts[0] == counts[1], "work counters differ between identical runs")
    expect(counts[0]["slicing.moves_built"] > 0, "no moves counted on slice commands")
    expect((words.reduce, slicing.reduce, slicing.apply_move) == originals, "uninstall left wrappers behind")


def test_benchmark_json_matches_run():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "end_to_end differs from run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER, "per_layer differs from run.py")
    expect({w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY, "workloads differ from workloads.py")
    expect(set(workloads.WHY) == set(workloads.WORKLOADS), "every workload needs a reason")


def main():
    cli = run.import_cli()
    tests = [
        (test_checks_reject_corrupted_outputs, (cli,)),
        (test_counters_repeat_and_uninstall_restores, (cli,)),
        (test_benchmark_json_matches_run, ()),
    ]
    for fn, args in tests:
        try:
            fn(*args)
        except TestFailure as e:
            print("FAIL %s: %s" % (fn.__name__, e))
            return 1
        print("ok   %s" % fn.__name__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
