"""Step-annealing policies: map AR step k to a diffusion step count T(k).

Four policies over K autoregressive steps, parameterized by ``t_early`` and
``t_late``:

* constant:  ``T(k) = t_early`` (annealing off; the baseline case)
* two_stage: ``T(k) = t_early`` while ``k < K/2``, else ``t_late``
* linear:    ``T(k) = round(t_early + (t_late - t_early) * k / K)``
* cosine:    ``T(k) = round(t_late + (t_early - t_late) * (cos(k pi / K) + 1) / 2)``

``k`` is 0-indexed over the K steps and rounding is half away from zero, so
every rule's T(k) lies between ``t_early`` and ``t_late``.  The linear rule
is evaluated literally, so ``T(K - 1)`` generally stops one rounding unit
short of ``t_late`` (the exact endpoint sits at ``k = K``, outside the
domain).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

SCHEDULER_KINDS = ("constant", "two_stage", "linear", "cosine")


def _round_half_away(x: float) -> int:
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


@dataclass(frozen=True)
class StepScheduler:
    """Annealing policy over ``ar_steps`` autoregressive steps."""

    kind: str
    t_early: int
    t_late: int
    ar_steps: int

    def __post_init__(self):
        if self.kind not in SCHEDULER_KINDS:
            raise ValueError(f"kind: unknown scheduler {self.kind!r}")
        if self.t_early < 1:
            raise ValueError("t_early: must be a positive integer")
        if self.t_late < 1:
            raise ValueError("t_late: must be a positive integer")
        if self.ar_steps < 1:
            raise ValueError("ar_steps: must be a positive integer")
        if self.kind == "constant":  # its rule reads no t_late
            object.__setattr__(self, "t_late", self.t_early)


def scheduler_label(s: StepScheduler) -> str:
    """The policy's name in ``sweep``'s tables, e.g. ``linear_50_5``."""
    if s.kind == "constant":
        return f"constant_{s.t_early}"
    return f"{s.kind}_{s.t_early}_{s.t_late}"


def constant_scheduler(t: int, ar_steps: int) -> StepScheduler:
    return StepScheduler(kind="constant", t_early=t, t_late=t, ar_steps=ar_steps)


def steps_at(scheduler: StepScheduler, k: int) -> int:
    """Diffusion step count at AR step ``k``."""
    K = scheduler.ar_steps
    if not 0 <= k < K:
        raise ValueError(f"k: must lie in [0, {K})")
    te, tl = scheduler.t_early, scheduler.t_late
    if scheduler.kind == "constant":
        return te
    if scheduler.kind == "two_stage":
        return te if k < K / 2 else tl
    if scheduler.kind == "linear":
        return _round_half_away(te + (tl - te) * k / K)
    # cosine
    return _round_half_away(tl + (te - tl) * 0.5 * (math.cos(k * math.pi / K) + 1.0))


def schedule_table(scheduler: StepScheduler) -> list[tuple[int, int]]:
    """Full (k, T(k)) table."""
    return [(k, steps_at(scheduler, k)) for k in range(scheduler.ar_steps)]


def total_nfe(
    scheduler: StepScheduler, calls: Callable[[int], int] | None = None
) -> int:
    """Total scheduled denoiser evaluations across all AR steps.

    ``calls(T)`` is what one sampler run on a T-step grid costs (for example
    ``SamplerConfig.calls``; 2T - 1 for the midpoint solver); by default one
    call per step.
    """
    counts = [steps_at(scheduler, k) for k in range(scheduler.ar_steps)]
    if calls is not None:
        counts = [calls(t) for t in counts]
    if min(counts) < 1:
        raise ValueError("calls: every grid must cost at least one denoiser call")
    return sum(counts)
