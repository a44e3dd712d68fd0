"""Handle-decomposition replay, boundary-complexity bounds, and
piece-counting obstructions for compact manifolds.

Importing the package loads none of its modules: each name below is
imported from its module on first use (PEP 562), so a command pays only for
the modules it touches.
"""

import importlib

_EXPORTS = {
    "homology": (
        "ConnectedSum DescriptorError Explicit HomologyVector Product "
        "Sphere Surface betti desc_equal descriptor_from_json "
        "descriptor_to_json dimension normalize pretty total_betti"
    ).split(),
    "trace": (
        "AttachError Declared Dim3One Dim3Three Dim3Two Dim3Zero "
        "HandleRecord NonSeparating "
        "OrderedHandleDecomposition ReplayError Separating TraceError "
        "canonical_dumps dualize replay trace_from_json trace_to_json "
        "validate validated walk"
    ).split(),
    "nu": "Bound NuEvaluation evaluate heegaard_upper nu_of_ordering search_min_nu".split(),
    "union": "GlueError GlueSpec InequalityReport check_key_inequality compose".split(),
    "obstruction": (
        "DecompositionGraph HandleBudget RefutationVerdict betti1_floor "
        "interface_lower_bound pieces_ceiling refute"
    ).split(),
    "catalog": "CatalogEntry Certification lookup names verify_all".split(),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
