"""Variable step-size LMS adaptation with dynamic adaptation gain filters.

Building blocks: delay-operator polynomials and transfer operators
(:mod:`~daglms.dsp_core`), frequency-domain SPR/PR design tools
(:mod:`~daglms.spr_design`), the adaptation engine (:mod:`~daglms.adapt`),
experiment scenarios and metrics (:mod:`~daglms.sim`) and a CSV-emitting
command line (:mod:`~daglms.cli`).
"""

from .adapt import (
    AdaptState,
    DivergenceError,
    PredictionPair,
    PRESET_ORDER,
    StepSizePolicy,
    make_preset,
    preset_triple,
    step_size,
)
from .dsp_core import (
    NoiseSpec,
    Polynomial,
    RootFindingError,
    SingularityError,
    TransferOperator,
    gen_noise,
    poly_mul,
    roots_inside_unit_circle,
    windowed_variance,
)
from .sim import (
    RunDiverged,
    RunTrace,
    ScenarioConfig,
    attenuation_db,
    default_feedforward_scenario,
    run_feedforward,
    run_many,
    run_sysid,
    time_to_threshold,
)
from .spr_design import (
    DagConfig,
    PrVerdict,
    SprVerdict,
    arima2_spr_closed_form,
    bode_points,
    d_from_dprime,
    dag_transfer,
    integrated_dag,
    is_pr_unit_pole,
    is_spr_numeric,
    log_gain_integral,
    spr_region_grid,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptState",
    "DagConfig",
    "DivergenceError",
    "NoiseSpec",
    "Polynomial",
    "PredictionPair",
    "PrVerdict",
    "PRESET_ORDER",
    "RootFindingError",
    "RunDiverged",
    "RunTrace",
    "ScenarioConfig",
    "SingularityError",
    "SprVerdict",
    "StepSizePolicy",
    "TransferOperator",
    "arima2_spr_closed_form",
    "attenuation_db",
    "bode_points",
    "d_from_dprime",
    "dag_transfer",
    "default_feedforward_scenario",
    "gen_noise",
    "integrated_dag",
    "is_pr_unit_pole",
    "is_spr_numeric",
    "log_gain_integral",
    "make_preset",
    "poly_mul",
    "preset_triple",
    "roots_inside_unit_circle",
    "run_feedforward",
    "run_many",
    "run_sysid",
    "spr_region_grid",
    "step_size",
    "time_to_threshold",
    "windowed_variance",
    "__version__",
]
