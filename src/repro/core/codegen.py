"""Source-codegen kernel backend: one flat Python function per plan.

The closure kernels of :mod:`repro.core.kernels` removed interpretive
dispatch from the join core, but still pay one Python *call* per plan
step per candidate (the nested-closure chain), one call per match
(``emit``) and one per-factor piece walk (``BodyValue``).  This module
is the next speed tier the ROADMAP names "kernel codegen v2": each
:class:`~repro.core.plan_ir.BodyPlanIR` is lowered to **actual Python
source** — nested ``for``/``if`` over the probe tables, unification as
tuple-index comparisons, pushdown filters and indicator brackets
inlined as native expressions over local variables, the semiring
``⊕``/``⊗`` and each mask table's ``dict.get`` bound as locals, head
keys built as tuple displays, contributions accumulated straight into
the caller's bucket, and work counters kept in local ints flushed into
:class:`~repro.core.indexes.JoinStats` once per invocation — then
``compile()``-d into one flat function.  The hot loop therefore runs
straight-line bytecode: no closure chain, no emit trampoline, no
per-factor dispatch, and (for fully guard-covered bodies) not a single
valuation-dict operation.

What stays identical to the closure backend, by construction from the
same IR:

* the plan (join order, masks, pushdown placement, fallback loop) —
  both backends compile the *same* ``BodyPlanIR``;
* index freshness — generated prologues re-resolve
  ``guards[pos].index`` per invocation, so per-iteration index
  refreshes are picked up without regenerating source;
* counter semantics — every probe/scan/prune/fallback counter is
  incremented at the same event as the interpreted and closure
  executors count it;
* value semantics — factor products fold left from ``1`` in body
  order, carried probe values serve factors exactly when the closure
  path would, and store routing (IDB → POPS EDB → Boolean embedding →
  ``⊥`` default) mirrors ``FactorEvaluator.atom_value``.  The leaf
  writes ``⊕``/``⊗`` as the native source ``pops.caps.native_source``
  honours (``b if b < a else a`` and ``a + b`` for ``Trop+``), which
  is the methods' expression and so gives the same object; elsewhere
  it calls the bound methods.  In a space whose values are held in
  the canonical form ``1 ⊗ v`` (``caps.canonical``, ``Trop+_p``) the
  fold starts at a first factor that reads a relation instead of at
  ``1``: stores, warm starts and every computed value are canonical,
  and ``1 ⊗`` fixes those bit for bit.  A first factor that is a
  condition, a constant or a function keeps the fold.

Kernels are cached in the evaluators' existing
:class:`~repro.core.kernels.KernelCache` (``kernel_cache_hits`` counts
reuse; ``JoinStats.codegen_kernels`` counts source compilations — the
pair proves each body is generated once per stratum, not per
iteration).  The generated source is retained on the kernel object
(``kernel.source``) and registered with :mod:`linecache` under the
kernel's ``filename``, so tracebacks through generated code show real
lines and a debugger can step into them; ``engine="codegen"`` on
:func:`repro.core.engine.solve` selects this backend everywhere the
closure kernels are wired (naïve, semi-naïve with all delta variants,
hybrid, grounding, every schedule).
"""

from __future__ import annotations

import itertools
import linecache
from types import FunctionType
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..semirings.base import FunctionRegistry, POPS
from .ast import (
    And,
    BoolAtom,
    Compare,
    Condition,
    Constant,
    KeyFunc,
    Not,
    Or,
    Term,
    TrueCond,
    Variable,
)
from .indexes import NO_VALUE, JoinStats, KeyIndex
from .instance import Database
from .plan_ir import BodyPlanIR
from .rules import (
    Factor,
    FuncFactor,
    Indicator,
    KeyAsValue,
    RelAtom,
    SumProduct,
    ValueConst,
    factor_atoms,
)

_EMPTY_BUCKET: Tuple = ()
_MISSING = object()

#: Comparison operators of the condition language map 1:1 onto Python's
#: (``_COMPARATORS`` in :mod:`repro.core.ast` is exactly this table).
_PY_OPS = frozenset({"==", "!=", "<", "<=", ">", ">="})

_filename_counter = itertools.count()


class CodegenError(TypeError):
    """Raised when a plan node cannot be lowered to source.

    Should be unreachable for plans produced by
    :func:`repro.core.plan_ir.build_body_plan` — it exists to fail
    loudly (at generation time, never mid-fixpoint) if an invariant the
    generator relies on is broken upstream.
    """


class _Writer:
    """Tiny indented-source builder."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def w(self, line: str = "") -> None:
        self.lines.append("    " * self.depth + line if line else "")

    def indent(self) -> None:
        self.depth += 1

    def dedent(self) -> None:
        self.depth -= 1

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class CodegenKernel:
    """One generated, compiled join kernel.

    ``run`` is the compiled flat function; its signature depends on the
    leaf mode (see :func:`generate_rule_kernel` /
    :func:`generate_join_kernel`).  ``source`` retains the generated
    Python for debugging — it is also registered in :mod:`linecache`
    under ``filename``, so tracebacks resolve to real source lines.
    ``fn`` is the compiled function itself (``run`` may be wrapped by a
    budget poll); its keyword defaults are the kernel's env, and
    ``stats_name`` names the one that holds the solve's
    :class:`~repro.core.indexes.JoinStats`.
    """

    __slots__ = ("run", "source", "filename", "fn", "stats_name")

    def __init__(
        self,
        fn: Callable,
        source: str,
        filename: str,
        stats_name: Optional[str] = None,
    ):
        self.run = self.fn = fn
        self.source = source
        self.filename = filename
        self.stats_name = stats_name

    @property
    def env(self) -> Dict[str, Any]:
        """Every object the generated source references, by name."""
        return self.fn.__kwdefaults__ or {}

    def install_poll(self, poll: Optional[Callable]) -> None:
        """Arm the kernel with a budget poll hook.

        Wraps ``run`` so the poll fires once per invocation of the
        generated function (the codegen-path budget check); when no
        budget is armed ``run`` stays the raw compiled function with
        zero added frames.
        """
        if poll is None:
            return
        fn = self.run

        def guarded(*args, _fn=fn, _poll=poll):
            _poll()
            return _fn(*args)

        self.run = guarded

    def rebind(
        self, stats: Optional[JoinStats], poll: Optional[Callable]
    ) -> "CodegenKernel":
        """This kernel for another solve: counters flushed into
        ``stats``, budget polled through ``poll``.

        The result is a fresh function over the same code object and
        globals, with the stats default swapped; no plan is built, no
        source generated, and this kernel is left as it is.
        """
        fn = self.fn
        if self.stats_name is not None:
            fn = FunctionType(
                fn.__code__, fn.__globals__, fn.__name__, fn.__defaults__,
                fn.__closure__,
            )
            fn.__kwdefaults__ = {**self.env, self.stats_name: stats}
        kernel = CodegenKernel(fn, self.source, self.filename, self.stats_name)
        kernel.install_poll(poll)
        return kernel

    # ------------------------------------------------------------------
    def execute(self, guards: Sequence, emit: Callable) -> int:
        """Emit-mode alias mirroring ``CompiledKernel.execute``."""
        return self.run(guards, emit)


class _SourceGen:
    """Lowers one :class:`BodyPlanIR` to Python source plus an env dict.

    The env dict becomes the generated module's globals: every
    non-literal object the source references (semiring ops, store
    ``dict``s, constants, interpreted functions, sentinels) is bound to
    a fresh ``_E{n}_{hint}`` name there, so the generated code contains
    no ``repr`` round-trips and works for arbitrary key/value objects.
    """

    def __init__(
        self,
        ir: BodyPlanIR,
        fallback_domain: Sequence[Any],
        bool_lookup: Callable[[str, Tuple], bool],
        stats: Optional[JoinStats],
        emit_mode: bool,
        body: Optional[SumProduct] = None,
        head_args: Tuple[Term, ...] = (),
        pops: Optional[POPS] = None,
        database: Optional[Database] = None,
        functions: Optional[FunctionRegistry] = None,
        idb_names: FrozenSet[str] = frozenset(),
        carried_slots: FrozenSet[int] = frozenset(),
        variant: Optional[Tuple[Sequence[int], int]] = None,
    ):
        self.ir = ir
        self.domain = tuple(fallback_domain)
        self.bool_lookup = bool_lookup
        self.stats = stats
        self.emit_mode = emit_mode
        self.body = body
        self.head_args = head_args
        self.pops = pops
        self.database = database
        self.functions = functions
        self.idb_names = idb_names
        #: Factor slots whose value rides a plan step's probe.  A
        #: value-carrying guard is fed from the relation's support
        #: *mapping* (see :class:`~repro.core.valuations.Guard`), so
        #: every entry of its index holds a value: whether a factor
        #: reads the entry or the store is decided here, not per leaf.
        self.probed_slots = frozenset(
            step.slot for step in ir.steps if step.slot in carried_slots
        )
        self.variant = variant
        #: Per-leaf counter increments, folded into one multiply at the
        #: flush (``_n`` counts the leaves).
        self._leaf_hits = self._leaf_lookups = 0
        # Mirror the closure backend: any fallback binding needs the
        # domain membership check, so the set is materialized for it.
        self.needs_domain_set = ir.needs_domain_set or any(
            fb.binding is not None for fb in ir.fallback
        )

        self.env: Dict[str, Any] = {}
        self._env_names: Dict[int, str] = {}
        self._env_n = 0
        self._locals: Dict[str, str] = {}
        self._local_n = 0
        self._bound: set = set()
        self.w = _Writer()

    # ------------------------------------------------------------------
    # Environment and name management
    # ------------------------------------------------------------------
    def ref(self, obj: Any, hint: str = "o") -> str:
        """Bind ``obj`` into the generated module's globals, once."""
        name = self._env_names.get(id(obj))
        # The env dict keeps every referenced object alive, so a live
        # id() can only ever name the object it was registered for.
        if name is not None:
            return name
        self._env_n += 1
        safe = "".join(ch if ch.isalnum() else "_" for ch in hint)[:12]
        name = f"_E{self._env_n}_{safe}"
        self._env_names[id(obj)] = name
        self.env[name] = obj
        return name

    def bind_local(self, var: str) -> str:
        """The Python local carrying ``var``, registering the binding."""
        name = self._locals.get(var)
        if name is None:
            self._local_n += 1
            safe = "".join(ch if ch.isalnum() else "_" for ch in var)[:20]
            name = f"v{self._local_n}_{safe}"
            self._locals[var] = name
        self._bound.add(var)
        return name

    def read_local(self, var: str) -> str:
        if var not in self._bound:
            raise CodegenError(
                f"variable {var!r} read before any plan step binds it"
            )
        return self._locals[var]

    # ------------------------------------------------------------------
    # Expression lowering: terms, conditions, factors
    # ------------------------------------------------------------------
    def term_expr(self, term: Term) -> str:
        if isinstance(term, Variable):
            return self.read_local(term.name)
        if isinstance(term, Constant):
            return self.ref(term.value, "c")
        if isinstance(term, KeyFunc):
            fn = self.ref(term.fn, f"kf_{term.name}")
            args = ", ".join(self.term_expr(a) for a in term.args)
            return f"{fn}({args})"
        raise CodegenError(f"unknown term {term!r}")

    def key_expr(self, args: Sequence[Term]) -> str:
        if not args:
            return "()"
        inner = ", ".join(self.term_expr(a) for a in args)
        return f"({inner},)" if len(args) == 1 else f"({inner})"

    def cond_expr(self, cond: Condition) -> Optional[str]:
        """Lower ``Φ`` to a native expression; ``None`` = trivially true.

        Mirrors :func:`repro.core.kernels.compile_condition` exactly,
        including the trivially-true ``Or``-disjunct collapse.
        """
        if isinstance(cond, TrueCond):
            return None
        if isinstance(cond, Compare):
            if cond.op not in _PY_OPS:  # pragma: no cover - parser gates
                raise CodegenError(f"unknown comparison {cond.op!r}")
            return (
                f"({self.term_expr(cond.left)} {cond.op} "
                f"{self.term_expr(cond.right)})"
            )
        if isinstance(cond, BoolAtom):
            lookup = self.ref(self.bool_lookup, "bl")
            rel = self.ref(cond.relation, f"r_{cond.relation}")
            return f"{lookup}({rel}, {self.key_expr(cond.args)})"
        if isinstance(cond, Not):
            inner = self.cond_expr(cond.inner)
            return "False" if inner is None else f"(not {inner})"
        if isinstance(cond, (And, Or)):
            parts = [self.cond_expr(p) for p in cond.parts]
            live = [p for p in parts if p is not None]
            if isinstance(cond, And):
                if not live:
                    return None
                return "(" + " and ".join(live) + ")"
            if len(live) < len(parts):
                return None  # a trivially-true disjunct makes the Or true
            return "(" + " or ".join(live) + ")"
        raise CodegenError(f"unknown condition node {cond!r}")

    def factor_expr(self, slot: int, factor: Factor) -> Tuple[str, int]:
        """Lower one body factor to ``(expression, store lookups paid)``.

        Store routing mirrors ``kernels._compile_factor`` (and through
        it ``FactorEvaluator.atom_value``); under a semi-naïve variant,
        occurrence factors read the store Eq. 64 assigns their rank
        (``state[0]``/``state[1]``/``state[2]`` = new/delta/old) and
        every other factor gets EDB semantics.
        """
        if isinstance(factor, RelAtom):
            return self._atom_expr(slot, factor)
        if isinstance(factor, ValueConst):
            return self.ref(factor.value, "vc"), 0
        if isinstance(factor, Indicator):
            true_value = (
                factor.true_value
                if factor.true_value is not None
                else self.pops.one
            )
            false_value = (
                factor.false_value
                if factor.false_value is not None
                else self.pops.zero
            )
            cond = self.cond_expr(factor.condition)
            tv = self.ref(true_value, "tv")
            if cond is None:
                return tv, 0
            return f"({tv} if {cond} else {self.ref(false_value, 'fv')})", 0
        if isinstance(factor, FuncFactor):
            fn = self.ref(self.functions.resolve(factor.name), f"fn_{factor.name}")
            pieces = [self.factor_expr(-1, sub) for sub in factor.args]
            args = ", ".join(expr for expr, _ in pieces)
            lookups = sum(1 for _atom in factor_atoms(factor))
            return f"{fn}({args})", lookups
        if isinstance(factor, KeyAsValue):
            expr = self.term_expr(factor.term)
            if factor.convert is None:
                return expr, 0
            conv = self.ref(self.functions.resolve(factor.convert), "conv")
            return f"{conv}({expr})", 0
        raise CodegenError(f"unknown factor {factor!r}")

    def _atom_expr(self, slot: int, factor: RelAtom) -> Tuple[str, int]:
        relation = factor.relation
        rel = self.ref(relation, f"r_{relation}")
        key = self.key_expr(factor.args)
        if self.variant is not None:
            idb_positions, j = self.variant
            if slot in idb_positions:
                rank = list(idb_positions).index(slot)
                store_pos = 0 if rank < j else (1 if rank == j else 2)
                self._variant_stores.add(store_pos)
                return f"_stg{store_pos}({rel}, {key})", 1
            # Non-occurrence atoms get EDB semantics (empty IDB), like
            # the interpreted ``_variant_value``.
            return self._edb_atom_expr(relation, rel, key)
        if relation in self.idb_names:
            return f"_ig({rel}, {key})", 1
        return self._edb_atom_expr(relation, rel, key)

    def _edb_atom_expr(
        self, relation: str, rel: str, key: str
    ) -> Tuple[str, int]:
        bottom = self.ref(self.pops.bottom, "bot")
        store = self.database.raw_support(relation)
        if store is not None:
            get = self.ref(store.get, f"s_{relation}")
            return f"{get}({key}, {bottom})", 1
        if relation in self.database.bool_relations:
            store = self.ref(self.database.bool_relations[relation], f"b_{relation}")
            one = self.ref(self.pops.one, "one")
            zero = self.ref(self.pops.zero, "zero")
            return f"({one} if {key} in {store} else {zero})", 1
        rels = self.ref(self.database.relations, "rels")
        empty = self.ref({}, "emptyd")
        return f"{rels}.get({rel}, {empty}).get({key}, {bottom})", 1

    # ------------------------------------------------------------------
    # Statement generation
    # ------------------------------------------------------------------
    def build(self) -> str:
        w = self.w
        self._variant_stores: set = set()
        w.indent()

        self._gen_prologue()

        guarded = bool(self.ir.initial_bindings or self.ir.prefix_filters)
        if guarded:
            w.w("_ok = True")
            self._gen_initial_bindings()
            self._gen_prefix_filters()
            w.w("if _ok:")
            w.indent()
        self._gen_steps(0)
        if guarded:
            w.dedent()

        self._gen_flush()
        w.w("return _n")
        w.dedent()
        # The signature is assembled last: every env object becomes a
        # keyword-only default, so the hot loop reads them as function
        # locals (LOAD_FAST) instead of module globals.
        params = "guards, emit" if self.emit_mode else "guards, state, bucket"
        defaults = ", ".join(f"{name}={name}" for name in self.env)
        if defaults:
            signature = f"def _kernel({params}, *, {defaults}):"
        else:
            signature = f"def _kernel({params}):"
        source = signature + "\n" + w.source()
        # The variant-store prologue lines were reserved up front; fill
        # them in now that factor lowering knows which stores are read.
        return source.replace("#__VARIANT_STORES__", self._variant_store_lines())

    def _variant_store_lines(self) -> str:
        if self.variant is None or not self._variant_stores:
            return "pass"
        return "; ".join(
            f"_stg{p} = state[{p}].get" for p in sorted(self._variant_stores)
        )

    def _gen_prologue(self) -> None:
        w = self.w
        ki = self.ref(KeyIndex, "KI")
        stats = self.ref(self.stats, "ST") if self.stats is not None else None
        w.w("_n = 0")
        w.w(
            "_c_probes = _c_probed = _c_scans = _c_scanned = _c_arity = 0"
        )
        w.w("_c_prunes = _c_fb = _c_fbe = _c_eq = 0")
        # Per-invocation index resolution: guards may have been
        # refreshed since the last call, so nothing index-shaped is
        # baked into the env (exactly the closure kernels' contract).
        for i, step in enumerate(self.ir.steps):
            w.w(f"_g{i} = guards[{step.guard_pos}].index")
            w.w(f"if _g{i} is None:")
            w.indent()
            if stats is not None:
                w.w(f"_g{i} = {ki}(guards[{step.guard_pos}].keys(), stats={stats})")
            else:
                w.w(f"_g{i} = {ki}(guards[{step.guard_pos}].keys())")
            w.dedent()
            if step.mask:
                w.w(f"_t{i} = _g{i}.mask_table({step.mask!r}).get")
            else:
                w.w(f"_s{i} = _g{i}.entries()")
        if self.emit_mode:
            noval = self.ref(NO_VALUE, "NOVAL")
            w.w("_valu = {}")
            w.w(f"_slots = [{noval}] * {self.ir.n_slots}")
        else:
            if self.variant is None:
                w.w("_ig = state.get")
            else:
                w.w("#__VARIANT_STORES__")
            w.w("_bget = bucket.get")

    def _gen_initial_bindings(self) -> None:
        w = self.w
        for var, term, check in self.ir.initial_bindings:
            w.w("if _ok:")
            w.indent()
            expr = self.term_expr(term)  # may only read earlier bindings
            local = self.bind_local(var)
            w.w(f"{local} = {expr}")
            w.w("_c_eq += 1")
            if self.emit_mode:
                w.w(f"_valu[{var!r}] = {local}")
            if check and self.needs_domain_set:
                domset = self.ref(frozenset(self.domain), "domset")
                w.w(f"if {local} not in {domset}:")
                w.indent()
                w.w("_ok = False")
                w.dedent()
            w.dedent()

    def _gen_prefix_filters(self) -> None:
        w = self.w
        for cond in self.ir.prefix_filters:
            expr = self.cond_expr(cond)
            if expr is None:
                continue
            w.w(f"if _ok and not {expr}:")
            w.indent()
            w.w("_c_prunes += 1")
            w.w("_ok = False")
            w.dedent()

    def _gen_steps(self, i: int) -> None:
        w = self.w
        if i == len(self.ir.steps):
            self._gen_fallback(0)
            return
        step = self.ir.steps[i]
        if step.mask:
            empty = self.ref(_EMPTY_BUCKET, "EB")
            w.w(f"_f{i} = _t{i}({self.key_expr(step.probe_args)}, {empty})")
            w.w("_c_probes += 1")
            w.w(f"_c_probed += len(_f{i})")
            w.w(f"for _e{i} in _f{i}:")
        else:
            w.w("_c_scans += 1")
            w.w(f"_c_scanned += len(_s{i})")
            w.w(f"for _e{i} in _s{i}:")
        w.indent()
        w.w(f"_k{i} = _e{i}[0]")
        w.w(f"if len(_k{i}) != {step.arity}:")
        w.indent()
        w.w("_c_arity += 1")
        w.w("continue")
        w.dedent()
        for pos, first in step.dups:
            w.w(f"if _k{i}[{pos}] != _k{i}[{first}]:")
            w.indent()
            w.w("continue")
            w.dedent()
        for pos, name in step.binds:
            local = self.bind_local(name)
            w.w(f"{local} = _k{i}[{pos}]")
            if self.emit_mode:
                w.w(f"_valu[{name!r}] = {local}")
        for cond in step.filters:
            expr = self.cond_expr(cond)
            if expr is None:
                continue
            w.w(f"if not {expr}:")
            w.indent()
            w.w("_c_prunes += 1")
            w.w("continue")
            w.dedent()
        if step.slot is not None:
            if self.emit_mode:
                w.w(f"_slots[{step.slot}] = _e{i}[1]")
            elif step.slot in self.probed_slots:
                w.w(f"_v{step.slot} = _e{i}[1]")
        self._gen_steps(i + 1)
        w.dedent()

    def _gen_fallback(self, depth: int) -> None:
        w = self.w
        if depth == len(self.ir.fallback):
            self._gen_residual_and_leaf()
            return
        step = self.ir.fallback[depth]
        counter = "_c_fb" if depth == len(self.ir.fallback) - 1 else "_c_fbe"
        if step.binding is None:
            domain = self.ref(self.domain, "dom")
            local = self.bind_local(step.var)
            w.w(f"for {local} in {domain}:")
            w.indent()
            if self.emit_mode:
                w.w(f"_valu[{step.var!r}] = {local}")
            w.w(f"{counter} += 1")
            for cond in step.filters:
                expr = self.cond_expr(cond)
                if expr is None:
                    continue
                w.w(f"if not {expr}:")
                w.indent()
                w.w("_c_prunes += 1")
                w.w("continue")
                w.dedent()
            self._gen_fallback(depth + 1)
            w.dedent()
            return
        # Equality binding: one candidate, domain-membership-checked.
        expr = self.term_expr(step.binding)
        local = self.bind_local(step.var)
        w.w(f"{local} = {expr}")
        w.w("_c_eq += 1")
        domset = self.ref(frozenset(self.domain), "domset")
        w.w(f"if {local} in {domset}:")
        w.indent()
        if self.emit_mode:
            w.w(f"_valu[{step.var!r}] = {local}")
        w.w(f"{counter} += 1")
        self._gen_filter_chain(
            step.filters, lambda: self._gen_fallback(depth + 1)
        )
        w.dedent()

    def _gen_filter_chain(
        self, conditions: Sequence[Condition], inner: Callable[[], None]
    ) -> None:
        """``if/elif/else`` pruning chain for non-loop contexts.

        The first failing filter counts one prune and skips the inner
        block — the same event order as the loop-context ``continue``
        chains, just without a loop to continue.
        """
        w = self.w
        exprs = [
            e
            for e in (self.cond_expr(c) for c in conditions)
            if e is not None
        ]
        if not exprs:
            inner()
            return
        w.w(f"if not {exprs[0]}:")
        w.indent()
        w.w("_c_prunes += 1")
        w.dedent()
        for expr in exprs[1:]:
            w.w(f"elif not {expr}:")
            w.indent()
            w.w("_c_prunes += 1")
            w.dedent()
        w.w("else:")
        w.indent()
        inner()
        w.dedent()

    def _gen_residual_and_leaf(self) -> None:
        self._gen_filter_chain(self.ir.residual, self._gen_leaf)

    def _gen_leaf(self) -> None:
        w = self.w
        w.w("_n += 1")
        if self.emit_mode:
            w.w("emit(_valu, _slots)")
            return
        names: List[str] = []
        for slot, factor in enumerate(self.body.factors):
            name = f"_v{slot}"
            if slot in self.probed_slots:
                self._leaf_hits += 1  # bound by its plan step
            else:
                expr, lookups = self.factor_expr(slot, factor)
                self._leaf_lookups += lookups
                w.w(f"{name} = {expr}")
            names.append(name)
        add, mul = self._leaf_ops()
        # Fold left from 1 in body order — the exact BodyValue fold.
        if (
            names
            and self.pops.caps.canonical is not None
            and isinstance(self.body.factors[0], RelAtom)
        ):
            acc, names = names[0], names[1:]
        else:
            acc = self.ref(self.pops.one, "one")
        w.w(f"_acc = {acc}")
        for name in names:
            w.w(f"_acc = {mul.format('_acc', name)}")
        miss = self.ref(_MISSING, "MISS")
        w.w(f"_hk = {self.key_expr(self.head_args)}")
        w.w(f"_prev = _bget(_hk, {miss})")
        w.w(
            f"bucket[_hk] = _acc if _prev is {miss} "
            f"else {add.format('_prev', '_acc')}"
        )

    def _leaf_ops(self) -> Tuple[str, str]:
        """``(⊕, ⊗)`` as templates over the operand names ``{0}`` and
        ``{1}``: the native source ``pops.caps`` honours, else calls of
        the bound methods."""
        native = self.pops.caps.native_source
        if native is not None:
            return tuple(f"({template})" for template in native)
        return tuple(
            f"{self.ref(getattr(self.pops, op), op)}({{0}}, {{1}})"
            for op in ("add", "mul")
        )

    def _gen_flush(self) -> None:
        w = self.w
        if self.stats is None:
            return
        stats = self.ref(self.stats, "ST")
        w.w(f"{stats}.probes += _c_probes")
        w.w(f"{stats}.probed_keys += _c_probed")
        w.w(f"{stats}.scans += _c_scans")
        w.w(f"{stats}.scanned_keys += _c_scanned")
        w.w(f"{stats}.arity_skips += _c_arity")
        w.w(f"{stats}.pushdown_prunes += _c_prunes")
        w.w(f"{stats}.fallback_candidates += _c_fb")
        w.w(f"{stats}.fallback_extensions += _c_fbe")
        w.w(f"{stats}.equality_bindings += _c_eq")
        if self._leaf_hits:
            w.w(f"{stats}.value_probe_hits += _n * {self._leaf_hits}")
        if self._leaf_lookups:
            w.w(f"{stats}.factor_lookups += _n * {self._leaf_lookups}")


#: Source text → compiled code object.  Two structurally identical
#: bodies (across evaluators, strata or whole solve() calls) generate
#: byte-identical source, so ``compile()`` — the expensive step — runs
#: once per distinct kernel shape per process; ``exec`` re-binds the
#: fresh env (stores, semiring ops) per kernel in microseconds.
_CODE_CACHE: Dict[str, Any] = {}


def _finalize(gen: _SourceGen, label: str) -> CodegenKernel:
    source = gen.build()
    code = _CODE_CACHE.get(source)
    if code is None:
        filename = f"<datalogo-codegen-{next(_filename_counter)}:{label}>"
        code = compile(source, filename, "exec")
        _CODE_CACHE[source] = code
        # Tracebacks and debuggers resolve generated lines through
        # linecache; the kernel also keeps the source for dumping.
        linecache.cache[filename] = (
            len(source),
            None,
            source.splitlines(True),
            filename,
        )
    namespace = dict(gen.env)
    exec(code, namespace)
    stats_name = None
    if gen.stats is not None:
        gen.stats.codegen_kernels += 1
        stats_name = gen._env_names.get(id(gen.stats))
    return CodegenKernel(
        namespace["_kernel"], source, code.co_filename, stats_name
    )


def generate_rule_kernel(
    ir: BodyPlanIR,
    body: SumProduct,
    head_args: Tuple[Term, ...],
    pops: POPS,
    database: Database,
    functions: FunctionRegistry,
    idb_names: FrozenSet[str],
    bool_lookup: Callable[[str, Tuple], bool],
    carried_slots: FrozenSet[int],
    fallback_domain: Sequence[Any],
    stats: Optional[JoinStats] = None,
    variant: Optional[Tuple[Sequence[int], int]] = None,
    label: str = "rule",
) -> CodegenKernel:
    """Generate the accumulate-mode kernel of one rule body.

    The compiled function has signature ``run(guards, state, bucket)``
    and returns the match count: ``state`` is the current IDB
    :class:`~repro.core.instance.Instance` (or, when ``variant`` gives
    a semi-naïve occurrence assignment ``(idb_positions, j)``, the
    ``(new, delta, old)`` store triple), and every match's ⊗-product is
    ⊕-accumulated into ``bucket`` under its head key — join, factor
    evaluation, head extraction and accumulation all in one flat
    function, no per-match callback.
    """
    gen = _SourceGen(
        ir,
        fallback_domain,
        bool_lookup,
        stats,
        emit_mode=False,
        body=body,
        head_args=head_args,
        pops=pops,
        database=database,
        functions=functions,
        idb_names=idb_names,
        carried_slots=carried_slots,
        variant=variant,
    )
    return _finalize(gen, label)


def generate_join_kernel(
    ir: BodyPlanIR,
    bool_lookup: Callable[[str, Tuple], bool],
    fallback_domain: Sequence[Any],
    stats: Optional[JoinStats] = None,
    label: str = "join",
) -> CodegenKernel:
    """Generate an emit-mode kernel: flat loops, per-match callback.

    ``run(guards, emit)`` streams every satisfying valuation into
    ``emit(valuation, slots)`` exactly like
    :meth:`repro.core.kernels.CompiledKernel.execute` — the valuation
    dict and slot list are owned by the kernel and reused, so consumers
    must copy what they retain.  Used by grounding (whose leaf builds
    provenance monomials, not semiring products).
    """
    gen = _SourceGen(
        ir, fallback_domain, bool_lookup, stats, emit_mode=True
    )
    return _finalize(gen, label)
