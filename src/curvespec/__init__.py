"""Curve-constrained spectra: preserver maps, regularity probes, classification.

Every exported name, and every submodule, is loaded on first use: importing
the package runs none of its modules, so a command loads only the modules
it runs.
"""

import importlib

__version__ = "0.1.0"

# the exported names of each module; errors and cli export none here
_EXPORTS = {
    "checking": ("BlackBoxMap", "ExternalProgramMap", "PreserverVerdict",
                 "check_cs", "continuity_probe"),
    "classify": ("circle_obstruction_demo", "classify_preserver",
                 "equivariance_test", "reconstruct_conjugator", "subspace_image"),
    "cli": (),
    "curves": ("CircleArc", "CornerGraph", "Curve", "Interval", "Line", "Polyline",
               "RealInterval", "Segment", "UnitCircleClosed", "curve_from_json",
               "curve_to_json", "punctured_unit_circle", "real_line",
               "unit_circle_arc"),
    "errors": (),
    "maps": ("Compose", "Conj", "OrderMap", "Rho", "TransposeConj", "eigen_conj",
             "map_from_json", "rho"),
    "regularity": ("ConfigurationTuple", "RegularityProfile", "collision_path",
                   "db_profile", "dc_probe", "divided_difference",
                   "rho_continuity_experiment"),
    "spectral": ("DomainSpec", "MatrixClass", "SpectralDecomposition",
                 "matrix_from_json", "matrix_to_json", "random_unitary", "sample",
                 "sample_batch", "spectra_equal", "spectral_bottleneck_distance",
                 "spectral_decompose"),
    "subspaces": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the module that defines name, or the submodule name, once."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | set(_EXPORTS))
