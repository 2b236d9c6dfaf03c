"""phasetomo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload reconstruct-desk --seed 1 --seconds 55 --trace 0

Closed loop, one process, one caller: the workload's stage is started
again only after the previous call returned and its outputs were checked,
until ``--seconds`` is used up. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced calls and prints the
per-layer metrics of the first traced call. The last
line of standard output is the result JSON; the lines before it record the
run's provenance and the stage outputs' quality figures.

The program is imported from ``src/`` next to this directory; the run
stops with exit code 2 when that tree is absent.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy is imported anywhere.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# set-up runs at least this often and for at least this long; median reported
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 200
# reference-kernel time spent before each stage call, as a share of the call
KERNEL_SHARE = 0.15

# name -> (unit, one-line meaning); every workload reports every name
END_TO_END = {
    "setup_s": ("s", "median wall time of one input set-up"),
    "stage_norm": ("ratio", "median stage wall time over the median wall time of a "
                            "reference kernel run between the stage calls"),
    "output_error": ("ratio", "relative error of the stage output against the generated truth"),
    "peak_rss_mb": ("MB", "peak resident set size of the benchmark process"),
}


def _load_program():
    """Import phasetomo from this checkout's src/, never from elsewhere."""
    if not (SRC / "phasetomo" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import phasetomo

    if Path(phasetomo.__file__).resolve().parent != SRC / "phasetomo":
        print(f"perfbench: imported phasetomo from {phasetomo.__file__}", file=sys.stderr)
        raise SystemExit(2)


def _median(values):
    return statistics.median(values) if values else None


def _summary(values):
    return {"n": len(values), "min": min(values), "median": _median(values),
            "max": max(values)}


class ReferenceKernel:
    """A fixed numpy + Python computation timed between the stage calls.

    The machine is shared and its speed drifts by 10-20 % over minutes,
    longer than a run. The median stage time over the median time of this
    kernel, both taken in the same run on the same core, keeps the
    program's cost and cancels part of that drift. The mix follows the
    stages: 2D FFTs (multislice), a gather along an axis (shear rotation)
    and interpreted Python (fit loop, CLI). It never calls phasetomo.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.wave = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
        self.volume = rng.normal(size=(48, 48, 48))
        self.index = np.argsort(self.volume[:1], axis=0).repeat(48, axis=0)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(150):
            np.fft.ifft2(np.exp(1j * self.wave.real) * np.fft.fft2(self.wave))
        for _ in range(20):
            np.take_along_axis(self.volume, self.index, axis=0)
        total = 0
        for i in range(100_000):
            total += i
        return time.perf_counter() - t0


def call_stage(workload, inputs, out: Path, call: int, traced: bool):
    """Run the stage once; returns (exit code, wall s, spans or None, names
    that could not be wrapped or counted)."""
    from layers import WRAPS
    from tracer import Tracer, installed
    from workloads import cli

    argv = workload.argv(inputs, out, call)
    if not traced:
        t0 = time.perf_counter()
        code = cli(argv)
        return code, time.perf_counter() - t0, None, []
    tracer = Tracer()
    with installed(tracer, WRAPS) as missing:
        with tracer.span("cli.main") as root:
            code = cli(argv)
    return code, root.duration, tracer.spans, missing + sorted(tracer.uncounted)


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run the stage in a closed loop for ``seconds``, check outputs."""
    from layers import WRAPS, setup_metrics, stage_metrics
    from tracer import Tracer, installed
    from workloads import CheckFailed

    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
            sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(work / f"setup{len(setup_times)}", seed)
        setup_times.append(time.perf_counter() - t0)

    reference = ReferenceKernel()
    kernel: list[float] = []
    attempted = failed = 0
    untraced: list[float] = []
    traced: list[tuple[float, dict]] = []
    quality: list[dict] = []
    missing: set[str] = set()
    errors: list[str] = []
    t_start = time.perf_counter()
    call = 0
    while True:
        use_trace = trace and call % 2 == 1
        out = work / f"stage{call}"
        attempted += 1
        reps = 1
        if untraced:
            reps = max(1, round(KERNEL_SHARE * untraced[-1] / _median(kernel)))
        kernel.extend(reference() for _ in range(reps))
        try:
            code, wall, spans, miss = call_stage(workload, inputs, out, call, use_trace)
        except Exception:  # a crashing stage is a failed operation, not a crashed run
            code = None
            errors.append(traceback.format_exc())
        if code != 0:
            failed += 1
            errors.append(f"stage call {call} exited with {code}")
        else:
            attempted += 1
            try:
                quality.append(workload.check(inputs, out, call))
                if use_trace:
                    missing.update(miss)
                    traced.append((wall, stage_metrics(spans)))
                else:
                    untraced.append(wall)
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                failed += 1
                errors.append(f"check after stage call {call}: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)
        call += 1
        elapsed = time.perf_counter() - t_start
        have_samples = untraced and (traced or not trace)
        if elapsed + elapsed / call > seconds and (have_samples or call >= 2):
            break

    attempted += 1
    once: dict = {}
    try:
        once = workload.run_once_checks(work / "once")
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        failed += 1
        errors.append(f"run-once check: {exc!r}")

    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "setup_s_summary": _summary(setup_times),
        "stage_s_samples": untraced,
        "stage_s_median": _median(untraced),
        "kernel_s_summary": _summary(kernel),
        "quality": quality[0] if quality else {},
        "run_once": once,
    }
    if not untraced or not quality:
        return result
    result["end_to_end"] = {
        "setup_s": _median(setup_times),
        "stage_norm": _median(untraced) / _median(kernel),
        # each distinct input once, whichever of them ran more often
        "output_error": statistics.fmean(
            {q["input"]: q["output_error"] for q in quality}.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace and traced:
        tracer = Tracer()
        with installed(tracer, WRAPS) as setup_missing:
            with tracer.span("bench.setup"):
                workload.setup(work / "setup-traced", seed)
        missing.update(setup_missing)
        # the first traced call: the same input on every run of this seed,
        # so its counts repeat exactly, and its figures add up to one call
        wall, layer = traced[0]
        layer = dict(layer, **setup_metrics(tracer.spans))
        layer["bench.traced_stage_s"] = wall
        layer["bench.untraced_stage_s"] = _median(untraced)
        layer["bench.tracing_overhead_s"] = wall - _median(untraced)
        layer["bench.missing_wraps"] = len(missing)
        attempted += 1
        if abs(layer["bench.layer_self_sum_s"] - wall) > 1e-9 * max(wall, 1.0):
            failed += 1
            errors.append("layer self times do not add up to the traced wall time")
        result.update(attempted=attempted, failed=failed, per_layer=layer,
                      missing_wraps=sorted(missing), traced_calls=len(traced))
    return result


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loop": "closed, 1 process, 1 caller",
    }


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    _load_program()
    from layers import PER_LAYER
    from workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    print(json.dumps({"provenance": provenance(args.workload, args.seed, args.seconds,
                                               bool(args.trace))}))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT))
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in result["errors"]:
        print(line, file=sys.stderr)
    info = {k: v for k, v in result.items() if k not in ("errors", "end_to_end", "per_layer")}
    print(json.dumps({"info": info}))
    if "end_to_end" not in result or (args.trace and "per_layer" not in result):
        print("perfbench: no successful stage call, no result", file=sys.stderr)
        return 1
    if args.trace:
        metrics = _metrics(result["per_layer"], PER_LAYER)
    else:
        metrics = _metrics(result["end_to_end"], {k: u for k, (u, _) in END_TO_END.items()})
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
