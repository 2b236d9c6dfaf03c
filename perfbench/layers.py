"""Which program names the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<what>``; the layer is one of the phasetomo
modules (``fields``, ``volume``, ``forward``, ``gradients``, ``solver``,
``phantom``, ``tracing``, ``cli``). Third-party calls are charged to the
layer that uses them: ``numpy.fft.fft2`` to ``fields``, scipy's
``least_squares`` to ``tracing``.
"""

from __future__ import annotations

from collections import Counter

from tracer import Span, Wrap, layer_self_times

LAYERS = ("fields", "volume", "forward", "gradients", "solver", "phantom", "tracing", "cli")


def _volume_bytes(args, kwargs, result):
    # computed from array sizes (input + output), not measured traffic
    return {"volume.bytes_computed": args[0].values.nbytes + result.values.nbytes}


def _series_written(args, kwargs, result):
    return {"forward.series_io_bytes_computed": 4 * args[0].images.size}


def _series_read(args, kwargs, result):
    return {"forward.series_io_bytes_computed": 4 * result.images.size}


WRAPS = [
    # cli -> stage entry points and file formats
    Wrap("phasetomo.cli.read_volume", "volume.io"),
    Wrap("phasetomo.cli.write_volume", "volume.io"),
    Wrap("phasetomo.phantom.write_volume", "volume.io"),
    Wrap("phasetomo.cli.simulate_tilt_series", "forward.simulate"),
    Wrap("phasetomo.cli.write_tilt_series", "forward.series_io", _series_written),
    Wrap("phasetomo.cli.read_tilt_series", "forward.series_io", _series_read),
    Wrap("phasetomo.cli.reconstruct", "solver.reconstruct"),
    Wrap("phasetomo.cli.trace_atoms", "tracing.trace",
         lambda a, k, r: {"tracing.sites": len(r)}),
    Wrap("phasetomo.cli.classify_species", "tracing.classify"),
    # forward model, as the simulation loop calls it
    Wrap("phasetomo.forward.rotate", "volume.rotate", _volume_bytes),
    Wrap("phasetomo.forward.bin_slices", "volume.bin", _volume_bytes),
    Wrap("phasetomo.forward.multislice_forward", "forward.multislice",
         lambda a, k, r: {"forward.slabs": a[0].n_slabs}),
    Wrap("phasetomo.forward.apply_poisson", "forward.poisson"),
    Wrap("phasetomo.forward.propagation_kernel", "fields.kernel"),
    Wrap("phasetomo.forward.band_mask", "fields.kernel"),
    Wrap("phasetomo.gradients.propagation_kernel", "fields.kernel"),
    Wrap("phasetomo.gradients.band_mask", "fields.kernel"),
    Wrap("numpy.fft.fft2", "fields.fft2"),
    Wrap("numpy.fft.ifft2", "fields.fft2"),
    # reconstruction loop
    Wrap("phasetomo.solver.bracket_step_size", "solver.bracket"),
    Wrap("phasetomo.solver.apply_prox", "solver.prox"),
    Wrap("phasetomo.solver.rotate", "volume.rotate", _volume_bytes),
    Wrap("phasetomo.solver.rotate_adjoint", "volume.rotate_adjoint", _volume_bytes),
    Wrap("phasetomo.solver.bin_slices", "volume.bin", _volume_bytes),
    Wrap("phasetomo.solver.bin_adjoint", "volume.bin_adjoint", _volume_bytes),
    Wrap("phasetomo.solver.multislice_forward", "forward.multislice",
         lambda a, k, r: {"forward.slabs": a[0].n_slabs}),
    Wrap("phasetomo.solver.backpropagate", "gradients.backprop"),
    Wrap("phasetomo.solver.residual", "gradients.residual"),
    # atom tracing
    Wrap("phasetomo.tracing.dog_filter", "tracing.dog"),
    Wrap("phasetomo.tracing.find_candidates", "tracing.candidates"),
    Wrap("phasetomo.tracing.least_squares", "tracing.fit",
         lambda a, k, r: {"tracing.fit_nfev": r.nfev}),
    # phantom rendering (set-up)
    Wrap("phasetomo.phantom.render_potential", "phantom.render"),
]

# name -> unit; every workload reports every name (0 where a layer is idle)
PER_LAYER = {
    "volume.rotate_s": "s",
    "volume.rotate_adjoint_s": "s",
    "volume.bin_s": "s",
    "volume.bin_adjoint_s": "s",
    "volume.rotate_calls": "count",
    "volume.bytes_computed": "B",
    "volume.io_s": "s",
    "volume.self_s": "s",
    "fields.fft2_calls": "count",
    "fields.fft2_s": "s",
    "fields.kernel_builds": "count",
    "fields.kernel_s": "s",
    "fields.self_s": "s",
    "forward.multislice_s": "s",
    "forward.slabs": "count",
    "forward.poisson_s": "s",
    "forward.series_io_s": "s",
    "forward.series_io_bytes_computed": "B",
    "forward.self_s": "s",
    "gradients.backprop_s": "s",
    "gradients.residual_s": "s",
    "gradients.self_s": "s",
    "solver.bracket_s": "s",
    "solver.prox_s": "s",
    "solver.iterations": "count",
    "solver.self_s": "s",
    "tracing.fit_calls": "count",
    "tracing.fit_nfev": "count",
    "tracing.fit_s": "s",
    "tracing.fit_yield": "ratio",
    "tracing.rounds": "count",
    "tracing.dog_s": "s",
    "tracing.candidates_s": "s",
    "tracing.classify_s": "s",
    "tracing.self_s": "s",
    "phantom.render_s": "s",
    "phantom.self_s": "s",
    "cli.self_s": "s",
    "bench.traced_stage_s": "s",
    "bench.layer_self_sum_s": "s",
    "bench.untraced_stage_s": "s",
    "bench.tracing_overhead_s": "s",
    "bench.missing_wraps": "count",
}


def _parent_name(spans: list[Span], s: Span) -> str | None:
    return spans[s.parent].name if s.parent >= 0 else None


def stage_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced stage call (root span ``cli.main``).

    The classification's single histogram fit also goes through
    ``least_squares``; it is charged to ``tracing.classify_s`` and kept out
    of the atom-fit figures.
    """
    dur: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    iterations = 0
    for s in spans:
        parent = _parent_name(spans, s)
        if s.name == "tracing.fit" and parent == "tracing.classify":
            continue
        if s.name == "solver.prox" and parent == "solver.reconstruct":
            iterations += 1  # the bracket's trial proxes sit under solver.bracket
        dur[s.name] += s.duration
        calls[s.name] += 1
        counts.update(s.counts)
    self_by_layer = layer_self_times(spans)
    fit_calls = calls["tracing.fit"]
    m = {
        "volume.rotate_s": dur["volume.rotate"],
        "volume.rotate_adjoint_s": dur["volume.rotate_adjoint"],
        "volume.bin_s": dur["volume.bin"],
        "volume.bin_adjoint_s": dur["volume.bin_adjoint"],
        "volume.rotate_calls": calls["volume.rotate"],
        "volume.bytes_computed": counts["volume.bytes_computed"],
        "volume.io_s": dur["volume.io"],
        "fields.fft2_calls": calls["fields.fft2"],
        "fields.fft2_s": dur["fields.fft2"],
        "fields.kernel_builds": calls["fields.kernel"],
        "fields.kernel_s": dur["fields.kernel"],
        "forward.multislice_s": dur["forward.multislice"],
        "forward.slabs": counts["forward.slabs"],
        "forward.series_io_s": dur["forward.series_io"],
        "forward.series_io_bytes_computed": counts["forward.series_io_bytes_computed"],
        "gradients.backprop_s": dur["gradients.backprop"],
        "gradients.residual_s": dur["gradients.residual"],
        "solver.bracket_s": dur["solver.bracket"],
        "solver.prox_s": dur["solver.prox"],
        "solver.iterations": iterations,
        "tracing.fit_calls": fit_calls,
        "tracing.fit_nfev": counts["tracing.fit_nfev"],
        "tracing.fit_s": dur["tracing.fit"],
        "tracing.fit_yield": counts["tracing.sites"] / fit_calls if fit_calls else 0.0,
        # one detection pass before the refinement loop, one per round
        "tracing.rounds": max(calls["tracing.dog"] - 1, 0),
        "tracing.dog_s": dur["tracing.dog"],
        "tracing.candidates_s": dur["tracing.candidates"],
        "tracing.classify_s": dur["tracing.classify"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    m["bench.layer_self_sum_s"] = sum(self_by_layer.values())
    return m


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced set-up pass. The Poisson draws happen
    where set-up simulates the series the reconstruction reads."""
    return {name + "_s": sum(s.duration for s in spans if s.name == name)
            for name in ("phantom.render", "forward.poisson")}
