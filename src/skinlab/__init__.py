"""Desk-scale numerical laboratory for dissipative one-band lattices.

Core pieces: momentum-space band data and boundary-condition-resolved
spectra, dense Lindblad superoperators with their stationary-state
structure, exact bulk relaxation, master-equation and no-jump propagation,
and reproducible stochastic-trajectory ensembles.
"""

__version__ = "0.1.0"

from .band import (
    BandModel,
    eval_dispersion,
    is_p_symmetric,
    make_cosine_model,
    momentum_grid,
    pbc_spectrum,
)
from .bulk import (
    BulkState,
    WannierDensity,
    bulk_evolve,
    bulk_wannier_density,
    decay_exponents,
    localized_bulk_state,
)
from .errors import (
    ConfigError,
    NotPSDError,
    NumericalFailure,
    ParameterError,
    SkinlabError,
    UnderflowError,
)
from .evolve import (
    DensityMatrix,
    EntropyTrace,
    MasterPropagator,
    Observables,
    SemiclassicalPropagator,
    SemiclassicalState,
    entropy_trace,
    observables,
    propagate_master,
    propagate_master_rk4,
    propagate_semiclassical,
    relaxation_time,
    von_neumann_entropy,
)
from .lattice_ops import (
    Construction,
    LatticeOperators,
    SpectrumReport,
    build_hatano_nelson,
    build_obc,
    distance_to_curve,
    hatano_nelson_pbc_dispersion,
    obc_spectrum,
    pbc_loop,
    skin_localization,
    sqrt_psd,
    winding_numbers,
)
from .liouvillian import (
    LiouvillianMatrix,
    StationaryReport,
    analytic_commuting_spectrum,
    bidiagonal_stationary_state,
    build_liouvillian,
    kernel_overlap,
    liouvillian_eigenvalues,
    liouvillian_spectrum,
    open_chain_modes,
    stationary_states,
    unvec,
    vec,
)
from .trajectories import (
    NoiseStream,
    StroboscopicPath,
    TrajectoryEnsemble,
    bloch_trajectory,
    run_ensemble,
    run_trajectory,
    stroboscopic_loop,
    trajectory_step,
)
