"""smovelab benchmark: one client, one command at a time, outputs checked.

    python3 bench/run.py --workload slice_readout --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; smovelab is imported from its
``src`` directory.  The run generates the workload's inputs from the
seed, then issues the workload's fixed command list through
``smovelab.cli.main`` in whole passes (a closed loop with one client and
no threads): at least three passes, and more while another pass fits in
``--seconds``.  Every command's exit code and stdout are checked (see
checks.py); any failure makes the run exit 1.

Times are reported at a reference machine speed.  On a shared machine
the CPU's speed changes in steps of up to about 2x that last from seconds
to minutes, and every timing moves with it.  So each timed thing (a
command, a probe) is bracketed by two runs of a fixed pure-Python
calibration loop, and its wall time is scaled by CAL_REF_S over their
mean: a value reads as the wall time on a machine where that loop takes
CAL_REF_S (about what it takes here when the machine is idle).  The
record keeps the raw wall times too.  A change to smovelab moves the
scaled times as it moves wall time; a change in the machine's speed
moves the calibration loop as well and cancels.

A command's latency is the median over passes of its scaled time.
Because every command repeats, a cache that outlives one ``cli.main``
call would be rewarded here although a shell user never sees it.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics:

  setup_s      median over fresh interpreters of the time from spawning the
               process to the first timed command: interpreter start,
               ``import smovelab.cli`` and input generation
  startup_s    median wall time of ``python -m smovelab.cli word reduce abBA``
  ops_per_s    commands per second of time spent inside ``cli.main``
  op_p50_ms    median command latency
  op_p90_ms    90th-percentile command latency (nearest rank, over a list
               of at least 100 commands)
  peak_rss_mb  peak resident set size of the benchmark process

The set-up and start-up probes run one at a time, before the first pass
and after each pass, so they sample the same conditions as the passes.
The run and its probes are pinned to one CPU (the two CPUs of a shared
machine need not run at the same speed).

With ``--trace 1`` the same untraced passes run first (they give the
per-subcommand ``cmd.<sub>.p50_ms``), then one more pass runs with the
tracer installed (tracer.py) and gives the per-layer metrics and
``trace.overhead_ratio``, the traced pass's time over the untraced
latencies' sum.  The per-layer busy and self times are the traced pass's
raw wall time.  No probes run.  A result record with the environment, sample
counts and all numbers is written to ``.bench_out/``; ``compare.py``
compares two sets of records.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
STARTUPS_PER_SLOT = 3  # start-up probes after each pass; one set-up probe
CAL_LOOPS = 12000
CAL_REF_S = 0.003  # one calibration loop at the reference speed
PROBE_TIMEOUT_S = 60
STARTUP_ARGV = ("word", "reduce", "abBA")
STARTUP_STDOUT = b"1\n---csv---\nkey,value\nop,reduce\nresult,1\n"
IMPORT_PROBE = "import time; t = time.perf_counter(); import smovelab.cli; print(time.perf_counter() - t)"

END_TO_END = {
    "setup_s": "s",
    "startup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {}
    for layer in tracing.LAYERS:
        units["%s.calls" % layer] = "count"
        units["%s.busy_s" % layer] = "s"
        units["%s.self_s" % layer] = "s"
    units.update(dict.fromkeys(tracing.COUNTERS, "count"))
    units["modmat.flops_computed"] = "flop"
    units["slicing.replay_ratio"] = "ratio"
    units["cli.bytes_out"] = "B"
    for sub in workloads.SUBCOMMANDS:
        units["cmd.%s.p50_ms" % sub] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = per_layer_units()


class Failed(Exception):
    pass


def import_cli():
    """Import smovelab from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "smovelab", "cli.py")):
        raise Failed("no smovelab sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import smovelab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise Failed("smovelab was imported from %s, not from %s" % (cli.__file__, SRC))
    return cli


def setup(workload, seed, workdir):
    """Everything before the first timed command: import and input generation."""
    t0 = time.perf_counter()
    cli = import_cli()
    import_s = time.perf_counter() - t0
    return cli, workloads.generate(workload, seed, workdir), import_s


def run_command(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:
            rc = -1
            buf.write("\n[benchmark] uncaught exception:\n" + traceback.format_exc())
        dt = time.perf_counter() - t0
    return rc, buf.getvalue(), dt


def percentile(values, q):
    """The q-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-q * len(ordered) // 100) - 1))
    return ordered[int(k)]


# --- machine speed ----------------------------------------------------------------------


def calibration_loop():
    """Fixed pure-Python work (small-dict, tuple and int operations, the mix
    of smovelab's hot loops); its duration tracks the machine's speed."""
    t0 = time.perf_counter()
    d = {}
    s = 0
    for i in range(CAL_LOOPS):
        k = (i & 63, i % 7)
        d[k] = d.get(k, 0) + i
        s += i * i % 7
    return time.perf_counter() - t0


def at_reference_speed(fn):
    """Run ``fn`` between two calibration loops.  Returns its result and the
    factor that scales wall time measured around it to the reference speed."""
    c0 = calibration_loop()
    res = fn()
    c1 = calibration_loop()
    return res, 2 * CAL_REF_S / (c0 + c1)


def pin_to_one_cpu():
    """Keep this process and the probes it starts on one CPU, so that the
    calibration loops run where the work they bracket runs."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# --- probes in fresh interpreters -------------------------------------------------------


def probe_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Probes:
    """Fresh-interpreter probes, one at a time, spread over the run so that
    they sample the same machine conditions as the passes."""

    def __init__(self, workload, seed):
        self.setup_argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                           "--seed", str(seed), "--setup-probe"]
        self.setup = []  # (wall seconds, speed factor)
        self.startup = []
        self.failures = []

    def __call__(self):
        self.setup.append(at_reference_speed(self.setup_once))
        for _ in range(STARTUPS_PER_SLOT):
            self.startup.append(at_reference_speed(self.startup_once))

    def setup_once(self):
        """Wall time from spawning an interpreter until it has finished set-up."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.setup_argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != b"ready\n" or proc.returncode != 0:
            raise Failed("set-up probe failed: %s" % err.decode(errors="replace")[-400:])
        return t1 - t0

    def import_once(self):
        """Seconds to import smovelab.cli, numpy included, in a fresh interpreter."""
        res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=probe_env(),
                             capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if res.returncode != 0:
            raise Failed("import probe failed: %s" % res.stderr[-400:])
        return float(res.stdout)

    def startup_once(self):
        t0 = time.perf_counter()
        res = subprocess.run(
            [sys.executable, "-m", "smovelab.cli", *STARTUP_ARGV],
            cwd=ROOT,
            env=probe_env(),
            capture_output=True,
            timeout=PROBE_TIMEOUT_S,
        )
        dt = time.perf_counter() - t0
        if res.returncode != 0 or res.stdout != STARTUP_STDOUT:
            self.failures.append({"argv": " ".join(STARTUP_ARGV), "rc": res.returncode,
                                  "why": "start-up probe printed %r" % res.stdout[:200]})
        return dt


# --- the closed loop ----------------------------------------------------------------------


class Loop:
    def __init__(self, cli, inputs, checker):
        self.cli = cli
        self.commands = inputs.commands
        self.checker = checker
        self.attempted = 0
        self.failures = []

    def one_pass(self, tracer=None):
        """Run every command once.  Returns per-command (wall seconds, speed
        factor) pairs and the bytes the commands printed."""
        lat, out_bytes = [], 0
        for i, cmd in enumerate(self.commands):
            if tracer is not None:
                tracer.request = i
            (rc, out, dt), factor = at_reference_speed(lambda: run_command(self.cli, cmd.argv))
            if tracer is not None:
                tracer.request = -1
                out_bytes += len(out.encode("utf-8"))
            lat.append((dt, factor))
            self.attempted += 1
            why = self.checker.check(cmd, rc, out)
            if why:
                self.failures.append({"argv": " ".join(cmd.argv)[:300], "rc": rc, "why": why})
        return lat, out_bytes

    def timed(self, seconds, between=None):
        """At least MIN_PASSES whole passes, and more while another pass as
        long as the last one fits in ``seconds``; ``between`` runs after
        each pass, untimed."""
        passes, spent, last = [], 0.0, 0.0
        while len(passes) < MIN_PASSES or spent + last <= seconds:
            t0 = time.perf_counter()
            passes.append(self.one_pass()[0])
            last = time.perf_counter() - t0
            spent += last
            if between is not None:
                between()
        return passes


def summarise(commands, passes):
    """Each command's latency: the median over passes of its wall time at
    the reference speed.  Also the raw wall-time medians, by argv."""
    lat = [statistics.median(dt * f for dt, f in ts) for ts in zip(*passes)]
    by_sub = defaultdict(list)
    raw_by_argv = defaultdict(list)
    for cmd, dt, ts in zip(commands, lat, zip(*passes)):
        by_sub[cmd.sub].append(dt)
        raw_by_argv[" ".join(cmd.argv)].append(statistics.median(t for t, _ in ts))
    return lat, by_sub, raw_by_argv


def baseline_numbers(by_argv, import_s):
    """The ROADMAP's reference timings (raw wall seconds), where this run
    contains them."""
    out = {} if import_s is None else {"import_smovelab_cli_s": import_s}
    prism = [x for a, v in by_argv.items() if a == "inv statesum --graphs prism3.g --table int3.csv" for x in v]
    stab = [x for a, v in by_argv.items() if a.startswith("demo stabilization --p 100003") for x in v]
    if prism:
        out["statesum_prism3_3colour_s"] = statistics.median(prism)
    if stab:
        out["demo_stabilization_p100003_s"] = statistics.median(stab)
    return out


# --- result record ---------------------------------------------------------------------------


def git_sha():
    """The checkout's commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def write_record(args, record):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d-%d.json" % (args.workload, args.seed, args.trace, os.getpid()))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def as_metrics(values, units):
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# --- main ----------------------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run(args):
    if not args.setup_probe:
        pin_to_one_cpu()
    workdir = os.path.join(WORK_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    cli, inputs, import_s = setup(args.workload, args.seed, workdir)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "commands_per_pass": len(inputs.commands),
              "main_process_setup_s": time.perf_counter() - T_START, "main_process_import_s": import_s}
    probes = None if args.trace else Probes(args.workload, args.seed)
    cold_import_s = None
    if probes is not None:
        cold_import_s = probes.import_once()
        probes()
    loop = Loop(cli, inputs, checks.Checker(inputs))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        passes = loop.timed(args.seconds, probes)
        if args.trace:
            tr = tracing.Tracer()
            tr.install()
            try:
                traced, out_bytes = loop.one_pass(tr)
            finally:
                tr.uninstall()
    finally:
        os.chdir(cwd)

    lat, by_sub, by_argv = summarise(inputs.commands, passes)
    failures = loop.failures + (probes.failures if probes else [])
    attempted = loop.attempted + (len(probes.startup) if probes else 0)
    record.update({
        "passes": len(passes),
        "pass_wall_s": [sum(dt for dt, _ in p) for p in passes],
        "pass_reference_s": [sum(dt * f for dt, f in p) for p in passes],
        "samples": {"commands": len(lat), "repeats": len(passes),
                    "per_subcommand": {k: len(v) for k, v in sorted(by_sub.items())}},
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:50],
        "baseline": baseline_numbers(by_argv, cold_import_s),
    })
    untraced = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * percentile(lat, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record["untraced"] = untraced
    if not args.trace:
        untraced["setup_s"] = statistics.median(t * f for t, f in probes.setup)
        untraced["startup_s"] = statistics.median(t * f for t, f in probes.startup)
        for name, samples in (("setup", probes.setup), ("startup", probes.startup)):
            record["%s_probe_wall_s" % name] = [t for t, _ in samples]
            record["%s_probe_reference_s" % name] = [t * f for t, f in samples]
        metrics = as_metrics(untraced, END_TO_END)
    else:
        layer = tr.metrics()
        layer["cli.bytes_out"] = out_bytes
        for sub in workloads.SUBCOMMANDS:
            layer["cmd.%s.p50_ms" % sub] = 1000 * statistics.median(by_sub[sub]) if by_sub.get(sub) else 0.0
        layer["trace.overhead_ratio"] = sum(dt * f for dt, f in traced) / sum(lat)
        record["traced"] = layer
        record["spans"] = len(tr.s_name)
        os.makedirs(OUT_DIR, exist_ok=True)
        tr.write(os.path.join(OUT_DIR, "trace-%s-seed%d-%d.npz" % (args.workload, args.seed, os.getpid())))
        metrics = as_metrics(layer, PER_LAYER)
    path = write_record(args, record)
    for f in failures[:10]:
        print("FAILED: %s: %s" % (f["argv"][:120], f["why"]), file=sys.stderr)
    print("record: %s" % os.path.relpath(path, ROOT), file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def main(argv=None):
    args = parse_args(argv)
    try:
        return run(args)
    except Failed as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
