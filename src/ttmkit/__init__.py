"""Transfer-tensor reconstruction, memory kernels, and noise spectroscopy.

The pipeline runs in stages: sample or measure dynamical maps on a uniform
time grid (propagator, qpt), compress them into transfer tensors (ttm),
quantify memory (nonmarkov), and invert the discrete memory kernel for the
noise correlation functions and spectra (spectroscopy). Two-qubit map
series additionally split into separable and collective parts (multiqubit).
"""

from ._version import __version__
from .liouville import (
    bloch_affine,
    bloch_volume,
    commutator_superop,
    factorize_bipartite,
    hamiltonian_liouvillian,
    kron_superop,
    min_choi_eigenvalue,
    to_choi,
    trace_preservation_defect,
    unitary_superop,
    unvec,
    vec,
)
from .multiqubit import (
    SingularMapError,
    UnravelResult,
    collective_report,
    isolate_collective,
    isolate_generator_kernel,
    unravel,
)
from .noisegen import GaussianPathSampler, NoiseModel
from .nonmarkov import (
    VolumeSeries,
    extended_volume_measure,
    volume_measure,
    volume_series,
)
from .propagator import (
    SystemModel,
    dephasing_map,
    dephasing_map_series,
    simulate_process,
    simulate_pulsed_process,
)
from .qpt import (
    QptRecord,
    prep_labels,
    prep_states,
    project_cptp,
    reconstruct_maps,
    simulate_qpt,
)
from .spectroscopy import (
    CorrelationSeries,
    combine_scaled_kernels,
    fit_correlations,
    spectral_density,
)
from .ttm import (
    build_ttms,
    choose_truncation,
    count_above_threshold,
    extract_kernel,
    norm_profile,
    predict_maps,
    predict_states,
)

__all__ = [
    "__version__",
    "vec", "unvec", "unitary_superop", "commutator_superop", "hamiltonian_liouvillian",
    "to_choi", "trace_preservation_defect", "min_choi_eigenvalue", "bloch_affine",
    "bloch_volume", "kron_superop", "factorize_bipartite",
    "NoiseModel", "GaussianPathSampler",
    "SystemModel", "simulate_process", "simulate_pulsed_process",
    "dephasing_map", "dephasing_map_series",
    "QptRecord", "prep_labels", "prep_states",
    "simulate_qpt", "reconstruct_maps", "project_cptp",
    "build_ttms", "predict_maps", "predict_states", "extract_kernel",
    "norm_profile", "count_above_threshold", "choose_truncation",
    "VolumeSeries", "volume_series", "volume_measure", "extended_volume_measure",
    "CorrelationSeries", "fit_correlations", "spectral_density",
    "combine_scaled_kernels",
    "UnravelResult", "unravel", "isolate_generator_kernel", "isolate_collective",
    "SingularMapError", "collective_report",
]
