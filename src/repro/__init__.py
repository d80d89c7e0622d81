"""datalog°: Datalog over (pre-) semirings.

A faithful, fully-tested reproduction of *"Convergence of Datalog over
(Pre-) Semirings"* (Abo Khamis, Ngo, Pichler, Suciu, Wang; PODS 2022 /
arXiv:2105.14435): the POPS algebra, the datalog° language, naïve /
semi-naïve / LinearLFP evaluation, the stability-based convergence
theory, and the THREE-valued treatment of negation.

Quickstart::

    from repro import semirings, core

    trop = semirings.TROP
    # T(x,y) :- E(x,y) ⊕ min_z (T(x,z) + E(z,y))   — APSP over Trop+
    program = core.Program(rules=[core.Rule(
        "T", core.terms(["X", "Y"]),
        (core.SumProduct((core.RelAtom("E", core.terms(["X", "Y"])),)),
         core.SumProduct((core.RelAtom("T", core.terms(["X", "Z"])),
                          core.RelAtom("E", core.terms(["Z", "Y"])))))
    )])
    db = core.Database(pops=trop, relations={"E": {("a", "b"): 1.0}})
    result = core.solve(program, db)

The subpackages are imported on first access (PEP 562), so ``import
repro`` alone loads none of them.
"""

import importlib

__version__ = "1.0.0"

_SUBPACKAGES = (
    "analysis",
    "apps",
    "core",
    "fixpoint",
    "negation",
    "programs",
    "semirings",
    "workloads",
)

__all__ = [*_SUBPACKAGES, "__version__"]


def __getattr__(name: str) -> object:
    if name not in _SUBPACKAGES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{name}")
    globals()[name] = module
    return module


def __dir__() -> list:
    return sorted(set(globals()) | set(_SUBPACKAGES))
