#!/usr/bin/env python3
"""rfharvest benchmark: four workloads, end-to-end metrics, a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload sweep_ref --seed 42 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 42 --seconds 20

``--trace 0`` repeats the workload's pass for ``--seconds`` and reports
the end-to-end metrics; ``--trace 1`` runs a fixed amount of work once
untraced and once traced and reports per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans, results and digests
go to ``bench/out/``.  bench/README.md explains the workloads.
"""

import os

# Pin native thread pools before numpy can be imported (children inherit).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("sweep_ref", "solve_stress", "baselines", "oracle_check")
# Fresh processes timed per run; setup_s is the median of them.
SETUP_SAMPLES = 8
SETUP_TIMEOUT_S = 60
# Whole passes a timed run makes at least, so every unit has a repeat.
MIN_PASSES = 2
# The machine's pace drifts by up to ~40 % from one minute to the next,
# and two fixed kernels' times follow it (see Pace).  Timed phases run
# them every CALIBRATE_EVERY_S seconds of work, and times are scaled to
# the pace at which they take SCALAR_REF_S and VECTOR_REF_S: their times
# in a quiet spell of the 2-vCPU machine the benchmark was written on.
CALIBRATE_EVERY_S = 0.3
SCALAR_REF_S = 0.02
VECTOR_REF_S = 0.01
PACE_WINDOW = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- bookkeeping -------------------------------------------------------------

def source_digest():
    """sha256 over the program, its configs and this benchmark."""
    digest = hashlib.sha256()
    files = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "configs").glob("*")),
             *sorted(BENCH.glob("*.py"))]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, source_sha):
    return {
        "commit": _git_commit(),
        "source_sha256": source_sha,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "pyyaml": _version("PyYAML"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class DigestBook:
    """Unit digests; a unit must hash the same every time it runs.

    Digests persist in bench/out/digests/, one file per source digest,
    workload and seed, so later runs of the same code and seed are held
    to the first one.
    """

    def __init__(self, source_sha, workload, seed):
        self.path = OUT / "digests" / f"{workload}-s{seed}-{source_sha[:16]}.json"
        self.known = json.loads(self.path.read_text()) if self.path.exists() else {}
        self.mismatches = []

    def check(self, key, text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        expected = self.known.setdefault(key, digest)
        if expected != digest:
            self.mismatches.append(key)

    def combined(self):
        lines = "".join(f"{key} {digest}\n" for key, digest in sorted(self.known.items()))
        return hashlib.sha256(lines.encode()).hexdigest()

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True))
        os.replace(tmp, self.path)


class Pace:
    """The machine's current pace, from two fixed kernels of the kinds of
    work the program does: a Python loop of scalar maths on 16-element
    numpy arrays (replay, charge, the strategies) and whole-array maths on
    200 000 elements (the brute-force oracle, candidate search).

    ``scale`` converts a time measured now into seconds at the reference
    pace: it divides by the geometric mean of the two kernels' slowdowns,
    each the median of their last PACE_WINDOW times over its reference.
    The kernels never call the program, so no change to it moves the scale.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        self._small = np.linspace(0.1, 1.0, 16)
        self._large = np.linspace(0.1, 1.0, 200_000)
        self.scalar_s = []
        self.vector_s = []
        self._last = None

    def measure(self):
        np, acc = self._np, 0.0
        start = time.perf_counter()
        for i in range(3000):
            b = np.sqrt(self._small * (i + 1.0))
            acc += float(np.sum(np.exp(-b))) + float(np.max(b))
        middle = time.perf_counter()
        for i in range(12):
            acc += float(np.sum(np.exp(-np.sqrt(self._large * (i + 1.0)))))
        end = time.perf_counter()
        self.scalar_s.append(middle - start)
        self.vector_s.append(end - middle)
        return acc

    def tick(self, elapsed):
        """Measure if CALIBRATE_EVERY_S of work has passed since the last."""
        if self._last is None or elapsed - self._last >= CALIBRATE_EVERY_S:
            self.measure()
            self._last = elapsed

    def scale(self, seconds):
        scalar = statistics.median(self.scalar_s[-PACE_WINDOW:]) / SCALAR_REF_S
        vector = statistics.median(self.vector_s[-PACE_WINDOW:]) / VECTOR_REF_S
        return seconds / math.sqrt(scalar * vector)


class Tally:
    def __init__(self):
        self.units = self.passes = self.attempted = self.ok = self.failed = self.wrong = 0
        self.errors = []
        self.unit_s = []
        self.wall_s = 0.0
        self.unit_ok = {}        # unit key -> ok ops (the digest holds it fixed)
        self.unit_failed = {}    # unit key -> failed ops
        self.unit_times = {}     # unit key -> seconds of each repeat, at the reference pace

    def pass_rate(self):
        """(ok ops in one pass, seconds of one pass at the reference pace).

        A pass is timed as the sum of each unit's median over its
        repeats.
        """
        seconds = sum(statistics.median(times) for times in self.unit_times.values())
        return sum(self.unit_ok.values()), seconds


def run_units(workload, book, *, seconds=None, passes=None, pause=None, pace=None):
    """Run whole passes of the workload: ``passes`` of them, or, with
    ``seconds``, at least MIN_PASSES and then more while the next pass
    would end closer to ``seconds`` than the last one did.

    Only whole passes run, so every unit runs equally often and the ops
    and failures of a run depend on the seed alone.
    ``pause(elapsed)`` and ``pace.tick(elapsed)`` run between units with
    the clock stopped; with ``pace``, unit times are kept at the reference
    pace.
    """
    tally = Tally()
    elapsed = 0.0
    while True:
        for unit in workload.units:
            if pause is not None:
                pause(elapsed)
            if pace is not None:
                pace.tick(elapsed)
            start = time.perf_counter()
            outcome = unit.run()
            unit_s = time.perf_counter() - start
            elapsed += unit_s
            tally.unit_s.append(unit_s)
            tally.unit_times.setdefault(unit.key, []).append(
                unit_s if pace is None else pace.scale(unit_s))
            tally.unit_ok[unit.key] = outcome.ok
            tally.unit_failed[unit.key] = outcome.failed
            tally.units += 1
            tally.attempted += unit.ops
            tally.ok += outcome.ok
            tally.failed += outcome.failed
            tally.wrong += outcome.wrong
            tally.errors.extend(f"{unit.key}: {e}" for e in outcome.errors)
            book.check(unit.key, outcome.text)
        tally.passes += 1
        if passes is not None:
            if tally.passes >= passes:
                break
        elif tally.passes >= MIN_PASSES and elapsed + 0.5 * elapsed / tally.passes > seconds:
            break
    tally.wall_s = elapsed
    return tally


class SetupTimer:
    """Times fresh processes from launch until their workload is ready.

    Samples are spread over the timed phase (see run_units' ``pause``),
    so their median follows the machine over the whole run rather than
    over one burst at the start.  Each is scaled to the reference pace
    by kernel times taken just before it.
    """

    def __init__(self, args, seconds, pace):
        self.pace = pace
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-only"]
        self.due = [seconds * i / SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
        self.samples = []

    def __call__(self, elapsed):
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.samples.append(self.sample())

    def finish(self):
        while self.due:
            self.due.pop(0)
            self.samples.append(self.sample())

    def sample(self):
        for _ in range(PACE_WINDOW):
            self.pace.measure()
        start = time.perf_counter()
        proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup process failed (exit {proc.returncode})")
        return self.pace.scale(ready - start)


def _quantile(values, q):
    # numpy comes in with rfharvest; a top-level import would take it out
    # of setup.import_s.
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def family_metrics(workload):
    out = {}
    for family in ("N32", "N256", "N4096", "hetero"):
        samples = workload.solve_ms.get(family, [])
        times = [ms for ms, _ in samples]
        failed = sum(1 for _, f in samples if f)
        out[f"scheduling.solve.{family}.p50_ms"] = (_quantile(times, 50), "ms")
        out[f"scheduling.solve.{family}.p90_ms"] = (_quantile(times, 90), "ms")
        out[f"scheduling.solve.{family}.fail_frac"] = (failed / len(samples) if samples else 0.0,
                                                       "ratio")
    return out


# -- modes -------------------------------------------------------------------

def run_workload(args):
    import_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import_s = time.perf_counter() - import_start

    if args.setup_only:
        workloads.build(args.workload, ROOT, args.seed)
        print("ready", flush=True)
        return 0

    source_sha = source_digest()
    book = DigestBook(source_sha, args.workload, args.seed)
    env = environment(args, source_sha)
    result = {"env": env}

    if args.trace == 0:
        workload = workloads.build(args.workload, ROOT, args.seed)
        pace = Pace()
        setups = SetupTimer(args, args.seconds, pace)
        tally = run_units(workload, book, seconds=args.seconds, pause=setups, pace=pace)
        setups.finish()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok_per_pass, pass_s = tally.pass_rate()
        metrics = {
            "setup_s": (statistics.median(setups.samples), "s"),
            "ok_per_s": (ok_per_pass / pass_s, "ops/s"),
            "ok_frac": (ok_per_pass / workload.ops_per_pass, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        result["setup_samples_s"] = setups.samples
        result["pace_scalar_s"] = pace.scalar_s
        result["pace_vector_s"] = pace.vector_s
        tallies = [tally]
    else:
        from tracer import Tracer
        workload = workloads.build(args.workload, ROOT, args.seed)
        untraced = run_units(workload, book, passes=workload.trace_passes)
        tracer = Tracer()
        absent = tracer.install()
        try:
            traced_workload = workloads.build(args.workload, ROOT, args.seed)
            tally = run_units(traced_workload, book, passes=workload.trace_passes)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.csv")
        metrics = {**tracer.metrics(), **family_metrics(workload),
                   "setup.import_s": (import_s, "s"),
                   "trace.overhead_frac": (tally.wall_s / untraced.wall_s - 1.0, "ratio")}
        result["absent_layers"] = absent
        tallies = [untraced, tally]

    # Every pass runs the same ops, and the digests hold their outcomes
    # fixed, so the result line counts the ops of one pass: the seed alone
    # sets them, not how many passes the machine's speed allowed.
    attempted = workload.ops_per_pass
    failed = sum(tallies[0].unit_failed.values())
    wrong = sum(t.wrong for t in tallies)
    errors = [e for t in tallies for e in t.errors]
    correct = wrong == 0 and not book.mismatches
    book.save()

    result.update({
        "ops_per_pass": workload.ops_per_pass,
        "passes": [t.passes for t in tallies],
        "units": sum(t.units for t in tallies),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "ops_run": sum(t.attempted for t in tallies),
        "ok_run": sum(t.ok for t in tallies),
        "failed_run": sum(t.failed for t in tallies),
        "wrong": wrong,
        "wall_s": tallies[-1].wall_s,
        "unit_s": [t.unit_s for t in tallies],
        "digest": book.combined(),
        "digest_mismatches": book.mismatches,
        "errors": errors,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    })
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1))

    for message in errors[:20]:
        print(f"error: {message}", file=sys.stderr)
    for key in book.mismatches:
        print(f"digest mismatch: {key}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(f"digest {result['digest']}")
    if args.trace == 1 and absent:
        print("absent layers: " + ", ".join(absent))
    print(f"{args.workload}: attempted {attempted} ops per pass, failed {failed}, "
          f"fail_frac {failed / attempted:.6g} ratio; {result['passes']} passes, "
          f"wall {result['wall_s']:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def run_all(args):
    """Each workload in its own process, then one table."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        sys.stderr.write(proc.stderr)
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    if args.trace == 1:
        for name, line in rows:
            print(f"{name}: correct {line['correct']}, attempted {line['attempted']}, "
                  f"failed {line['failed']}; spans in bench/out/spans-{name}-s{args.seed}.csv")
        return 0
    print(f"{'workload':<14}{'ops':>8}{'failed':>8}{'fail_frac':>12}{'ok_frac':>10}{'setup_s':>10}"
          f"{'ok_per_s':>12}{'peak_rss_mb':>13}  correct")
    print(f"{'':<14}{'count':>8}{'count':>8}{'ratio':>12}{'ratio':>10}{'s':>10}{'ops/s':>12}{'MB':>13}")
    for name, line in rows:
        m = line["metrics"]
        print(f"{name:<14}{line['attempted']:>8}{line['failed']:>8}"
              f"{line['failed'] / line['attempted']:>12.4g}{m['ok_frac']['value']:>10.4f}"
              f"{m['setup_s']['value']:>10.4f}{m['ok_per_s']['value']:>12.4f}"
              f"{m['peak_rss_mb']['value']:>13.2f}  {line['correct']}")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "rfharvest" / "__init__.py").is_file():
        print(f"rfharvest sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
