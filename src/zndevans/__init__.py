"""Linear stability of steady one-dimensional detonation waves.

Evaluates the Evans-Lopatinski determinant of a steady ZND detonation by
forward adjoint shooting with the asymptotic decay factored out, alongside
the two classical rival algorithms, plus winding-number mode counting,
root continuation, and a model-problem efficiency benchmark.
"""

__version__ = "0.1.0"

from .numerics import (
    Contour,
    OdeField,
    SolveStats,
    integrate_adaptive,
    integrate_adaptive_scaled,
    newton_root,
    refine_contour,
    winding_number,
)
from .znd import (
    GasWaveConfig,
    StateW,
    SteadyWave,
    UpstreamState,
    build_wave,
    config_from_json,
    config_to_json,
    default_config,
    fluxes,
    nonreactive_config,
    profile_at,
    profile_deriv,
    profile_table,
    sigma,
    sonic_heat_release,
    thermo,
    x_of_y,
)
from .spectral import (
    SpectralFrame,
    coefficient_G,
    jacobians,
    jump_vector,
    left_mode_residual,
    make_frame,
    stable_left_mode,
)
from .evans import (
    METHODS,
    EvansResult,
    duality_check,
    evaluate,
    evans_erpenbeck,
    evans_lee_stewart,
    evans_neutral,
)
from .stability import (
    RootTrace,
    WindingReport,
    continue_roots,
    count_unstable,
    sweep_roots,
)
from .modelbench import (
    BenchCell,
    BenchTable,
    C_COLUMNS,
    LAMBDA_ROWS,
    ModelParams,
    REFERENCE_COUNTS,
    model_field,
    model_oracle,
    reproduce_table,
    run_cell,
)
