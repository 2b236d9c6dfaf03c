"""Tests of the benchmark itself: span arithmetic, wrapping, metric names,
and a tiny run of every workload."""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run._load_program()

from layers import PER_LAYER, WRAPS  # noqa: E402
from tracer import Span, Tracer, Wrap, installed, layer_self_times, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = {
    "reconstruct-desk": {"extent": 24, "n_tilts": 6, "max_iter": 2},
    "trace-shell": {"extent": 20, "max_refine_iters": 1},
}


def _benchmark_json() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    spans = [
        Span("cli.main", 0.0, 10.0),
        Span("solver.reconstruct", 1.0, 4.0, parent=0),
        Span("volume.rotate", 2.0, 3.0, parent=1),
        Span("volume.rotate", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    layers = layer_self_times(spans)
    assert layers == pytest.approx({"cli": 3.0, "solver": 2.0, "volume": 5.0})
    assert sum(layers.values()) == pytest.approx(spans[0].duration)


def test_self_time_clips_children_to_parent():
    spans = [Span("cli.main", 0.0, 2.0), Span("volume.io", 1.5, 3.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_tracer_records_parent_and_counts():
    tracer = Tracer()
    double = tracer.wrapper(lambda x: 2 * x, "fields.kernel", lambda a, k, r: {"n": r})
    with tracer.span("cli.main"):
        assert double(3) == 6
    root, child = tracer.spans
    assert child.parent == 0 and child.counts == {"n": 6}
    assert root.start <= child.start <= child.end <= root.end


def test_names_restored_and_missing_names_reported():
    import importlib

    def current(target):
        module, _, attr = target.rpartition(".")
        return getattr(importlib.import_module(module), attr)

    before = {w.target: current(w.target) for w in WRAPS}
    wraps = WRAPS + [Wrap("phasetomo.solver.no_such_name", "solver.gone"),
                     Wrap("no_such_package.f", "cli.gone")]
    with pytest.raises(RuntimeError):
        with installed(Tracer(), wraps) as missing:
            assert missing == ["phasetomo.solver.no_such_name", "no_such_package.f"]
            assert current("phasetomo.solver.rotate") is not before["phasetomo.solver.rotate"]
            raise RuntimeError("stage crashed")
    for target, original in before.items():
        assert current(target) is original, target


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == {name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert layer == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name in [*e2e, *layer, *WORKLOADS]:
        assert NAME.match(name), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload(name, tmp_path):
    workload = replace(WORKLOADS[name], **TINY[name])
    result = run.measure(workload, seed=3, seconds=0.01, trace=True, work=tmp_path)
    assert result["failed"] == 0, result["errors"]
    assert set(result["end_to_end"]) == set(run.END_TO_END)
    assert all(v > 0 for v in result["end_to_end"].values())
    layer = result["per_layer"]
    assert set(layer) == set(PER_LAYER)
    assert layer["bench.missing_wraps"] == 0
    assert layer["bench.layer_self_sum_s"] == pytest.approx(layer["bench.traced_stage_s"])


def test_counts_repeat_exactly(tmp_path):
    workload = replace(WORKLOADS["trace-shell"], **TINY["trace-shell"])
    counts = []
    for k in range(2):
        result = run.measure(workload, seed=5, seconds=0.01, trace=True, work=tmp_path / str(k))
        counts.append({n: v for n, v in result["per_layer"].items()
                       if PER_LAYER[n] in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["tracing.fit_calls"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH_DIR.name / "run.py"),
         "--workload", "trace-shell", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
