"""Span tracing of stepanneal's layers, applied from outside the package.

``install`` rebinds the names through which one layer calls the next
(``stepanneal.generate.conditional_solver``, ``stepanneal.cli.write_csv``,
the ``ExactDenoiser`` methods, ...) to wrappers that record a span per call.
A span is ``[name, start, end, parent, size]``: the name is
``<layer>.<function>``, ``parent`` is the index of the enclosing span (-1 for
a root) and ``size`` is a per-call count (elements, observed positions,
bytes).  Spans stay in memory until ``Tracer.write``; ``summarize`` turns a
pass's spans into per-layer counts and times.

A span's self time is its duration minus the durations of its children.
Calls are sequential, so children never overlap and the self times of all
spans sum to the duration of the root spans.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

DENOISER_METHODS = (
    "epsilon", "score", "x0", "velocity", "flow_score", "velocity_and_flow_score",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, size=None):
        """``fn`` recording one span per call; ``size(args, result)`` gives
        the span's count and is evaluated after the span ends."""
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size is not None:
                record[4] = size(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, size=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), size))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _state_size(args, result):
    return int(args[1].size)  # (self, x, level, cond)


def _observed_count(args, result):
    return len(args[1])  # (spec, observed_positions, target_positions, ...)


def _sampled_tokens(args, result):
    sample = result[0]  # (..., m, d): one token per (row, position)
    return int(sample.size // sample.shape[-1])


def _row_count(args, result):
    return len(result)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def install(tracer: Tracer):
    """Wrap every layer boundary the CLI reaches; returns the traced
    ``stepanneal.cli.main``, whose calls are the root spans."""
    from stepanneal import cli, diagnostics, generate, process
    from stepanneal.denoiser import ExactDenoiser

    for method in DENOISER_METHODS:
        tracer.patch(ExactDenoiser, method, f"denoiser.{method}", _state_size)
    tracer.patch(process.ConditionalSolver, "conditional", "process.conditional_mean")
    for module in (generate, diagnostics):
        tracer.patch(module, "conditional_solver", "process.conditional_solver",
                     _observed_count)
        tracer.patch(module, "joint_covariance", "process.joint_covariance")
        tracer.patch(module, "sample_with_config", "samplers.sample_with_config",
                     _sampled_tokens)
        tracer.patch(module, "steps_at", "annealing.steps_at")
        tracer.patch(module, "make_diffusion_grid", "schedules.grid")
        tracer.patch(module, "make_flow_grid", "schedules.grid")
    tracer.patch(diagnostics, "sample_conditional", "process.sample_conditional")
    tracer.patch(diagnostics, "total_nfe", "annealing.total_nfe")
    tracer.patch(diagnostics, "w2_to_truth", "diagnostics.w2_to_truth")
    tracer.patch(diagnostics, "w2_floor", "diagnostics.w2_floor")
    for module in (cli, diagnostics):
        tracer.patch(module, "simulate_sequences", "generate.simulate_sequences")
    tracer.patch(cli, "batch_to_csv_rows", "generate.batch_to_csv_rows", _row_count)
    tracer.patch(cli, "write_csv", "cli.write_csv", _file_bytes)
    tracer.patch(cli, "total_nfe", "annealing.total_nfe")
    tracer.patch(cli, "build_linear_beta", "schedules.build")
    tracer.patch(cli, "build_cosine_alpha_bar", "schedules.build")
    for name in ("straightness_by_step", "sampling_variance", "probe_error",
                 "quality_sweep"):
        tracer.patch(cli, name, f"diagnostics.{name}")
    return tracer.wrap("cli.main", cli.main)


def count_generation_calls() -> list[int]:
    """Wrap the ``ExactDenoiser`` methods in a plain call counter, and
    ``simulate_sequences`` as the CLI and the diagnostics bind it, so that
    each generation's denoiser calls are counted.  Returns the list that
    receives one count per ``simulate_sequences`` call.  It is far cheaper
    than tracing, so every pass runs with it."""
    from stepanneal import cli, diagnostics
    from stepanneal.denoiser import ExactDenoiser

    calls = [0]
    generations: list[int] = []

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def generation(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = calls[0]
            result = fn(*args, **kwargs)
            generations.append(calls[0] - before)
            return result
        return wrapper

    for method in DENOISER_METHODS:
        setattr(ExactDenoiser, method, counted(getattr(ExactDenoiser, method)))
    for module in (cli, diagnostics):
        module.simulate_sequences = generation(module.simulate_sequences)
    return generations


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def summarize(spans) -> dict:
    """Per-layer counts and seconds of one pass (see bench/README.md)."""
    durations = [end - start for _, start, end, _, _ in spans]
    self_s = list(durations)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_s[parent] -= durations[i]

    def named(name):
        return [i for i, span in enumerate(spans) if span[0] == name]

    def total(name):
        return sum(durations[i] for i in named(name))

    def self_of(prefix):
        return sum(s for span, s in zip(spans, self_s) if span[0].startswith(prefix))

    denoiser = [i for i, span in enumerate(spans) if span[0].startswith("denoiser.")]
    den_us = [durations[i] * 1e6 for i in denoiser]
    samplers = named("samplers.sample_with_config")
    sampler_ms = [durations[i] * 1e3 for i in samplers]
    solver = named("process.conditional_solver")
    roots = [i for i, span in enumerate(spans) if span[3] < 0]
    return {
        "process.conditional_solver_calls": len(solver),
        "process.conditional_solver_s": total("process.conditional_solver"),
        "process.chol_flops": sum(spans[i][4] ** 3 / 3.0 for i in solver),
        "process.conditional_mean_s": total("process.conditional_mean"),
        "process.sample_conditional_s": total("process.sample_conditional"),
        "process.joint_covariance_s": total("process.joint_covariance"),
        "process.self_s": self_of("process."),
        "denoiser.calls": len(denoiser),
        "denoiser.s": sum(durations[i] for i in denoiser),
        "denoiser.us_per_call_p50": _quantile(den_us, 5),
        "denoiser.us_per_call_p90": _quantile(den_us, 9),
        "denoiser.elems_per_call": (
            sum(spans[i][4] for i in denoiser) / len(denoiser) if denoiser else 0.0
        ),
        "samplers.calls": len(samplers),
        "samplers.self_s": self_of("samplers."),
        "samplers.step_ms_p50": _quantile(sampler_ms, 5),
        "samplers.step_ms_p90": _quantile(sampler_ms, 9),
        "samplers.tokens": sum(spans[i][4] for i in samplers),
        "schedules.grid_calls": len(named("schedules.grid")),
        "schedules.grid_s": total("schedules.grid"),
        "schedules.self_s": self_of("schedules."),
        "annealing.self_s": self_of("annealing."),
        "generate.self_s": self_of("generate."),
        "generate.csv_rows_s": total("generate.batch_to_csv_rows"),
        "diagnostics.w2_calls": len(named("diagnostics.w2_to_truth")),
        "diagnostics.w2_s": total("diagnostics.w2_to_truth"),
        "diagnostics.w2_floor_s": total("diagnostics.w2_floor"),
        "diagnostics.straightness_self_s": self_of("diagnostics.straightness_by_step"),
        "diagnostics.sampling_variance_self_s": self_of("diagnostics.sampling_variance"),
        "diagnostics.probe_error_s": total("diagnostics.probe_error"),
        "diagnostics.quality_sweep_self_s": self_of("diagnostics.quality_sweep"),
        "diagnostics.self_s": self_of("diagnostics."),
        "cli.write_csv_s": total("cli.write_csv"),
        "cli.csv_bytes": sum(spans[i][4] for i in named("cli.write_csv")),
        "cli.self_s": self_of("cli."),
        "trace.spans": len(spans),
        "trace.root_s": sum(durations[i] for i in roots),
        "trace.min_self_s": min(self_s) if self_s else 0.0,
    }


def denoiser_calls_under(spans, ancestor: str) -> int:
    """Denoiser calls made inside any span named ``ancestor``."""
    inside = [False] * len(spans)
    count = 0
    for i, (name, _, _, parent, _) in enumerate(spans):
        inside[i] = name == ancestor or (parent >= 0 and inside[parent])
        if inside[i] and name.startswith("denoiser."):
            count += 1
    return count


# Figures of ``summarize`` that the benchmark checks but does not report.
CHECK_ONLY = ("samplers.tokens", "trace.root_s", "trace.min_self_s")

LAYER_SELF_METRICS = (
    "process.self_s", "denoiser.s", "samplers.self_s", "schedules.self_s",
    "annealing.self_s", "generate.self_s", "diagnostics.self_s", "cli.self_s",
)
