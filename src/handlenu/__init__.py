"""Handle-decomposition replay, boundary-complexity bounds, and
piece-counting obstructions for compact manifolds.

Importing the package loads none of its modules: each name below is
imported from its module on first use (PEP 562).  The ``nu`` command runs
only the modules a subcommand uses: ``cli`` imports ``homology`` and
``trace`` and registers ``nu``, ``union`` and ``catalog`` through
:func:`_lazy`, which runs each on its first attribute use.  ``compute`` and
``search`` run ``nu``; ``compose`` runs ``nu`` and ``union``; ``validate``
runs none of the three; ``obstruct`` and ``refute`` run ``obstruction``;
``catalog`` and ``catalog --export`` run ``catalog``; ``catalog --verify``
runs all three.
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


def _lazy(name: str):
    """The submodule ``name``, registered in ``sys.modules`` now and run on
    first attribute use; the module already there if it is imported."""
    import importlib.util
    import sys

    qualified = f"{__name__}.{name}"
    module = sys.modules.get(qualified)
    if module is None:
        spec = importlib.util.find_spec(qualified)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualified] = module
        globals()[name] = module  # as the import system binds a loaded submodule
        spec.loader.exec_module(module)
    return module
