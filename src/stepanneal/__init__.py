"""Step-annealed diffusion sampling on an exactly solvable token process.

The package provides noise schedules and reverse-time grids
(:mod:`stepanneal.schedules`), a joint-Gaussian token field with closed-form
conditionals (:mod:`stepanneal.process`), the exact denoiser that solves one
Gaussian channel against them (:mod:`stepanneal.denoiser`), six reverse samplers
(:mod:`stepanneal.samplers`), the AR-step-to-diffusion-step annealing
policies (:mod:`stepanneal.annealing`), the autoregressive generation loop
(:mod:`stepanneal.generate`), and diagnostics for straightness, variance,
predictability, Gaussian W2 quality and rank correlation
(:mod:`stepanneal.diagnostics`).
"""

from .annealing import (
    SCHEDULER_KINDS,
    StepScheduler,
    constant_scheduler,
    schedule_table,
    steps_at,
    total_nfe,
)
from .denoiser import BiasedDenoiser, ExactDenoiser
from .diagnostics import (
    ProbeReport,
    StraightnessReport,
    SweepRow,
    SweepSummary,
    VarianceReport,
    conditional_moments,
    gaussian_fit,
    probe_error,
    quality_sweep,
    sampling_variance,
    scheduler_label,
    spearman,
    straightness_by_step,
    straightness_diffusion,
    straightness_flow,
    w2_floor,
    w2_gaussian,
    w2_to_truth,
)
from .generate import (
    SequenceBatch,
    batch_to_csv_rows,
    simulate_sequences,
    step_grids,
)
from .process import (
    ConditionalGaussian,
    ConditionalSolver,
    ConditioningPlan,
    GenerationOrder,
    NumericalError,
    TokenProcessSpec,
    conditional,
    conditional_solver,
    conditioning_plan,
    joint_covariance,
    random_order,
    raster_order,
    sample_conditional,
)
from .samplers import (
    DIFFUSION_SAMPLERS,
    FLOW_SAMPLERS,
    SAMPLER_KINDS,
    SamplerConfig,
    TrajectoryRecord,
    sample_with_config,
)
from .schedules import (
    DIFFUSION,
    FLOW,
    DiffusionSchedule,
    TimeGrid,
    build_cosine_alpha_bar,
    build_linear_beta,
    make_diffusion_grid,
    make_flow_grid,
)

__version__ = "0.1.0"
