"""Benchmark for graphhvi: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run generates its inputs from the seed
(``workloads.py``), then drives ``graphhvi.cli.main(argv)`` in this process,
one command at a time, each writing its report with ``--out``.  The
workload's operations form a pass; whole passes repeat while another fits
in ``--seconds``.  Every report is checked against the inputs by
``oracle.py`` outside the timed region.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, in seconds at a nominal machine speed (``SpeedProbe``); with
``--trace 1`` it holds the per-layer metrics of a traced run (see
``tracing.py``).  The line before it holds sample counts, the run's
environment and, when traced, the full layer table.  See README.md.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the machine the benchmark was tuned on has 2 cores
THREAD_PINS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
TAIL_BEYOND = 10     # operations beyond the reported tail percentile
# The machine the benchmark was written on changes speed by up to 2x within
# seconds, with process CPU time equal to wall time (so not steal).  A fixed
# reference kernel, outside the program, tracks that change: it runs before
# and after each operation and, from a SIGALRM timer, every REF_PERIOD_S
# during it.  An operation's seconds, less those of the kernels run inside
# it, are scaled by the mean of REF_NOMINAL_S over each kernel time, so they
# read as seconds on a machine where the kernel takes REF_NOMINAL_S.  Over
# repeated operations this cut the scatter of one operation's time (standard
# deviation of the log) from 0.12 to 0.04 on 3.4 s operations and from 0.19
# to 0.11 on 0.2 s ones.
REF_LOOP = 30_000
REF_PRODUCTS = 10
REF_MATRIX = np.random.default_rng(0).random((120, 120))
REF_FLOATS = np.random.default_rng(1).random(20_000).tolist()
REF_NOMINAL_S = 0.006
REF_PERIOD_S = 0.25


def reference_s() -> float:
    """Seconds the fixed reference kernel takes now: pure-Python
    arithmetic, small dense products and a sort of Python floats spread
    through memory, the kinds of work the program does.  The sort makes the
    kernel slow down with the object-heavy graph building of ``exhaust``:
    without it, the kernel tracked ``exhaust`` operations with correlation
    0.5 instead of 0.7."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOP):
        s += i * i % 7
    for _ in range(REF_PRODUCTS):
        REF_MATRIX @ REF_MATRIX
    sorted(REF_FLOATS)
    return time.perf_counter() - t0


def nominal(seconds: float, refs: list[float]) -> float:
    """``seconds`` at the nominal machine speed, given the reference kernel
    times measured around and during them."""
    return seconds * statistics.fmean(REF_NOMINAL_S / r for r in refs)


class SpeedProbe:
    """Times calls at the nominal machine speed (see ``REF_PERIOD_S``).
    The call runs in this process: a kernel run from the timer blocks it,
    so that kernel's time is taken out of the call's."""

    def __init__(self):
        # (start, seconds, kernel seconds) of each sample taken in a call
        self.during: list[tuple[float, float, float]] = []
        self.raw: list[float] = []                    # unscaled seconds
        self.kernels = 0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        ref = reference_s()
        self.during.append((t0, time.perf_counter() - t0, ref))

    def time(self, fn):
        """Run ``fn()``; return its result and its nominal seconds."""
        before = reference_s()
        self.during.clear()
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
        inside = [(dt, r) for t, dt, r in self.during if t < t1]
        raw = t1 - t0 - sum(dt for dt, _ in inside)
        refs = [before, *(r for _, r in inside), reference_s()]
        self.raw.append(raw)
        self.kernels += len(refs)
        return result, nominal(raw, refs)


def measure_setup(workloads, name: str, seed: int, work: str):
    """Median fresh-interpreter import of graphhvi plus median input
    generation and writing, over ``SETUP_REPEATS`` repetitions.  Also checks
    that every repetition produced byte-identical inputs."""
    env = dict(os.environ, PYTHONPATH=SRC)
    imports, writes, first = [], [], None
    for _ in range(SETUP_REPEATS):
        ref = reference_s()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import graphhvi"], env=env,
                       cwd=ROOT, check=True)
        t1 = time.perf_counter()
        wl = workloads.WORKLOADS[name](seed)
        shutil.rmtree(work, ignore_errors=True)
        workloads.write_files(wl, work)
        t2 = time.perf_counter()
        ref_after = reference_s()
        imports.append(nominal(t1 - t0, [ref, ref_after]))
        writes.append(nominal(t2 - t1, [ref, ref_after]))
        if first is None:
            first = wl.files
        elif wl.files != first:
            raise RuntimeError("input generation is not deterministic")
    return statistics.median(imports) + statistics.median(writes), wl


def run_op(cli, op, work: str, probe=None) -> tuple[float, int, str]:
    """Time one command from argv to its written report; returns
    ``(seconds, exit code, report path)``, with exit code -1 for an
    uncaught exception.  With a ``SpeedProbe`` the seconds are nominal."""
    argv = op.argv_in(work)
    out = argv[argv.index("--out") + 1]
    if os.path.exists(out):
        os.unlink(out)

    def call() -> int:
        try:
            return cli.main(argv)
        except SystemExit as exc:          # argparse rejected the argv
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:                  # the program crashed: count, go on
            traceback.print_exc()
            return -1

    if probe is not None:
        code, dt = probe.time(call)
        return dt, code, out
    t0 = time.perf_counter()
    code = call()
    return time.perf_counter() - t0, code, out


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it, and that
    percentile.  Below ``2 * TAIL_BEYOND`` samples that percentile would be
    under the median, so the maximum (percentile 100) is reported."""
    s = sorted(samples)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def closed_loop(ops, seconds: float, step):
    """Run whole passes over ``ops`` while another pass fits in
    ``seconds``; ``step(op)`` runs and checks one operation and returns its
    timed seconds.  Returns the timed seconds of each pass."""
    t_start = time.perf_counter()
    passes = []
    while True:
        passes.append(sum(step(op) for op in ops))
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_pins": THREAD_PINS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "graphhvi", "__init__.py")):
        print(f"error: no graphhvi sources under {SRC}", file=sys.stderr)
        return 2
    import workloads
    import oracle
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(HERE, ".work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s, wl = measure_setup(workloads, args.workload, args.seed, work)
        sys.path.insert(0, SRC)
        import graphhvi.cli as cli
        if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
            print(f"error: imported graphhvi from {cli.__file__}",
                  file=sys.stderr)
            return 2
        for op in wl.warmup:
            run_op(cli, op, work)

        verdicts, samples = [], []

        def timed(op, tracer=None, op_id=0, probe=None) -> float:
            if tracer is None:
                dt, code, out = run_op(cli, op, work, probe)
            else:
                with tracer.operation(op_id):
                    dt, code, out = run_op(cli, op, work)
            verdict = oracle.check(op, code, out, workloads.TOL)
            if not verdict.honest:
                print(f"check: {op.label}: exit {code}, residual "
                      f"{verdict.residual:.3e} {verdict.note}",
                      file=sys.stderr)
            verdicts.append(verdict)
            samples.append(dt)
            return dt

        if args.trace:
            result, detail = traced_run(wl, args.seconds, timed)
        else:
            probe = SpeedProbe()
            passes = closed_loop(wl.ops, args.seconds,
                                 lambda op: timed(op, probe=probe))
            raw = probe.raw
            k = len(wl.ops)
            raw_passes = [sum(raw[i:i + k]) for i in range(0, len(raw), k)]
            unscaled = {"wall_s": statistics.median(raw_passes),
                        "op_p50_s": statistics.median(raw),
                        "op_tail_s": tail(raw)[0]}
            p_tail, pct = tail(samples)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result = {
                "wall_s": (statistics.median(passes), "s"),
                "op_p50_s": (statistics.median(samples), "s"),
                "op_tail_s": (p_tail, "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            detail = {"samples": {"wall_s": len(passes),
                                  "op_p50_s": len(samples),
                                  "op_tail_s": len(samples),
                                  "setup_s": SETUP_REPEATS},
                      "op_tail_percentile": pct,
                      "unscaled": unscaled,
                      "reference_kernels": probe.kernels}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not v.ok for v in verdicts)
    if args.trace:
        result["ops.failed_frac"] = (failed / len(verdicts), "ratio")
        detail["ratio_bases"]["ops.failed_frac"] = {
            "failed": failed, "attempted": len(verdicts)}
    detail.update(workload=args.workload, seed=args.seed,
                  trace=args.trace, failed_frac=failed / len(verdicts),
                  environment=environment())
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": all(v.honest for v in verdicts),
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result.items()},
    }))
    return 0


def traced_run(wl, seconds, timed):
    """Each operation runs twice, traced and untraced, in alternating
    order; per-layer metrics come from the traced runs, the overhead from
    the pairs."""
    import tracing
    tracer = tracing.Tracer()
    plain, traced = [], []
    op_ids = itertools.count()

    def pair(op):
        op_id = next(op_ids)
        for with_trace in ((True, False) if op_id % 2 else (False, True)):
            if with_trace:
                traced.append(timed(op, tracer, op_id))
            else:
                plain.append(timed(op))
        return traced[-1] + plain[-1]

    closed_loop(wl.ops, seconds, pair)
    metrics = tracing.layer_metrics(tracer, len(traced))
    metrics["trace.overhead_frac"] = (sum(traced) / sum(plain) - 1.0, "ratio")
    layers = tracing.layer_table(tracer.spans)
    detail = {"samples": {"traced_ops": len(traced),
                          "untraced_ops": len(plain)},
              "layers": layers,
              "counts": dict(tracer.counts),
              "absent_boundaries": tracer.absent,
              "ratio_bases": {
                  "trace.overhead_frac": {"traced_s": sum(traced),
                                          "untraced_s": sum(plain)},
                  "solvers.converged_ratio": {
                      "converged": tracer.counts["converged"],
                      "solvers.solve_calls":
                          layers.get("solvers.solve", {}).get("calls", 0)}}}
    return metrics, detail


if __name__ == "__main__":
    sys.exit(main())
