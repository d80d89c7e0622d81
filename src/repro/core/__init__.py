"""The datalog° language and its evaluation engines (Sections 2.4, 4, 6).

The package is a lazy namespace (PEP 562): each public name below is
imported from its submodule on first access and then cached here, so
``from repro.core import solve`` loads the solver's modules and not the
batched backend, numpy, the demand rewriter or the HTTP service.
"""

import importlib

#: submodule → the public names it contributes to ``repro.core``.
_EXPORTS = {
    "ast": (
        "And", "BoolAtom", "Compare", "Condition", "Constant", "KeyFunc",
        "Not", "Or", "TrueCond", "Variable", "const", "terms", "var",
    ),
    "batched": (
        "BatchedError", "BatchedKernel", "build_batched_join_kernel",
        "build_batched_rule_kernel",
    ),
    "codegen": ("CodegenKernel", "generate_join_kernel", "generate_rule_kernel"),
    "demand": (
        "DemandError", "DemandQuery", "DemandVerdict", "demand_rewrite",
        "demand_solve", "demand_verdict", "parse_query",
    ),
    "engine": ("solve",),
    "extensions": ("HybridEvaluator", "ThresholdRule"),
    "grounding": ("GroundingError", "assignment_to_instance", "ground_program"),
    "incremental": (
        "ApplySummary", "DredBudgetExceeded", "IncrementalInstance",
        "Mutation", "fingerprint",
    ),
    "journal": (
        "DurableInstance", "InjectedCrash", "JournalError", "JournalWarning",
        "MutationJournal", "load_checkpoint", "write_checkpoint",
    ),
    "guardrails": (
        "Budget", "BudgetExceeded", "FaultPlan", "PartialResult",
        "PreflightVerdict", "preflight",
    ),
    "indexes": ("IndexManager", "JoinStats", "KeyIndex"),
    "instance": ("Database", "Instance"),
    "kernels": (
        "VALID_ENGINES", "BodyKernels", "CompiledKernel", "KernelCache",
        "compile_kernel",
    ),
    "io": (
        "database_from_dict", "database_to_dict", "decode_value",
        "dump_instance", "encode_value", "instance_from_dict",
        "instance_to_dict", "load_instance",
    ),
    "linear": ("LinearFunction", "LinearityError", "linear_lfp"),
    "naive": ("EvaluationResult", "NaiveEvaluator", "naive_fixpoint"),
    "newton": (
        "NewtonError", "NewtonResult", "jacobian", "newton_fixpoint",
        "partial_derivative",
    ),
    "parser": ("ParseError", "parse_program", "tokenize"),
    "plan_ir": ("BodyPlanIR", "ProbeStepIR", "build_body_plan"),
    "planner": (
        "JoinPlan", "PlanStep", "ShardingPlan", "broadcast_relations",
        "build_plan", "build_sharding_plan", "select_shard_columns",
    ),
    "polynomial": ("Monomial", "Polynomial", "PolynomialSystem"),
    "rules": (
        "Factor", "FuncFactor", "Indicator", "KeyAsValue", "Program",
        "ProgramError", "RelAtom", "Rule", "SumProduct", "ValueConst",
        "case_rule",
    ),
    "scheduler": (
        "VALID_SCHEDULES", "StratificationError", "StratumReport",
        "scheduled_fixpoint",
    ),
    "valuations": ("VALID_PLANS",),
    "seminaive": ("SemiNaiveError", "SemiNaiveEvaluator", "seminaive_fixpoint"),
    "serve": ("DatalogService", "ServeError", "make_server"),
    "sharded": ("ShardedSemiNaiveEvaluator", "ShardWorkerError"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str) -> object:
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | _SOURCE.keys())
