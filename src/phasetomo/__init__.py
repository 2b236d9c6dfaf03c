"""phasetomo: defocused phase-contrast tilt-series simulation, multislice
reconstruction, and atom tracing for 3D atomic potentials."""

from .fields import ConfigurationError, GridSpec, TransferFunction
from .forward import (
    AcquisitionPlan,
    TiltSeries,
    apply_poisson,
    intensity,
    multislice_factors,
    multislice_forward,
    read_tilt_series,
    simulate_tilt_series,
    uniform_tilt_angles,
    write_tilt_series,
)
from .gradients import backpropagate, residual
from .phantom import (
    AtomList,
    GroundTruth,
    add_amorphous_shell,
    inject_vacancies,
    make_crystal,
    read_atoms_csv,
    read_ground_truth,
    render_potential,
    write_atoms_csv,
    write_ground_truth,
)
from .solver import (
    DivergenceError,
    SolverConfig,
    SolverState,
    prox_lasso,
    prox_positivity,
    prox_tv,
    reconstruct,
)
from .tracing import (
    TraceParams,
    TraceReport,
    TracedAtoms,
    classify_species,
    dog_filter,
    find_candidates,
    fit_gaussian_3d,
    score,
    trace_atoms,
)
from .volume import (
    BinnedVolume,
    InteractionParams,
    PotentialVolume,
    bin_adjoint,
    bin_slices,
    electron_wavelength,
    interaction_from_wavelength,
    interaction_parameter,
    max_slab_thickness,
    read_volume,
    rotate,
    rotate_adjoint,
    write_volume,
)

__version__ = "0.1.0"
