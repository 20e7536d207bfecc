"""The PASCAL determinism & contract rules (PAS001-PAS008).

Each rule is a small AST pass over one file (or, for the project-level
cache-key rule, over the whole linted set — see
:mod:`repro.analysis.contracts`).  Rules register themselves in
:data:`RULES` via :func:`register_rule`; the engine runs every registered
rule whose scope matches the file's path.

Scoping is path-segment based: a rule with ``scope = {"sim", "core"}``
runs only on files with a ``sim`` or ``core`` directory component, and
``allowed_segments`` / ``allowed_suffixes`` carve out sanctioned
exceptions (the scoped config the wall-clock rule uses for ``serve/`` and
``harness/cache.py``).  Rules are syntactic: they see one file's AST and
its import table, nothing cross-file — cheap, dependency-free, and wrong
only in the conservative direction (documented per rule).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Type

from repro.analysis.diagnostics import Diagnostic


@dataclass
class FileContext:
    """Everything the per-file rules see about one source file."""

    path: Path
    #: POSIX-style path relative to the lint root (what diagnostics show).
    relpath: str
    tree: ast.Module
    lines: tuple[str, ...]
    #: Directory components of :attr:`relpath` (scope matching).
    dir_parts: frozenset[str] = field(init=False)
    #: Local name -> fully dotted origin, from this file's imports.
    aliases: dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        self.dir_parts = frozenset(Path(self.relpath).parts[:-1])
        self.aliases = _import_aliases(self.tree)

    def snippet(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def diag(self, node: ast.AST, code: str, message: str) -> Diagnostic:
        return Diagnostic(
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
            snippet=self.snippet(node),
        )


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map each imported local name to its fully dotted origin.

    ``import time`` -> ``{"time": "time"}``; ``import numpy as np`` ->
    ``{"np": "numpy"}``; ``from time import perf_counter as pc`` ->
    ``{"pc": "time.perf_counter"}``.  Relative imports keep their bare
    module name — good enough for recognizing stdlib/numpy origins, which
    is all the rules resolve.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname is not None:
                    aliases[name.asname] = name.name
                else:
                    # ``import a.b`` binds ``a``; the dotted tail is
                    # reached through attribute access, which dotted()
                    # resolves naturally from the head.
                    head = name.name.split(".", 1)[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` attribute/name chain as a dotted string (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """The fully dotted origin of a call's callee, through import aliases."""
    chain = dotted(node.func)
    if chain is None:
        return None
    head, sep, rest = chain.partition(".")
    origin = aliases.get(head, head)
    return f"{origin}.{rest}" if sep else origin


#: code -> rule instance, in registration (= code) order.
RULES: dict[str, "LintRule"] = {}


def register_rule(cls: Type["LintRule"]) -> Type["LintRule"]:
    """Class decorator: instantiate and index the rule by its code."""
    rule = cls()
    if not rule.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return cls


class LintRule:
    """Base class: a code, a path scope, and a per-file check."""

    code: str = ""
    #: Path segments the rule applies to; None = every linted file.
    scope: frozenset[str] | None = None
    #: Segments where findings are sanctioned even inside scope.
    allowed_segments: frozenset[str] = frozenset()
    #: Relative-path suffixes sanctioned even inside scope.
    allowed_suffixes: tuple[str, ...] = ()
    #: Project-level rules run once over the whole linted set instead
    #: of per file (see ``check_project``).
    project_level: bool = False

    def applies_to(self, ctx: FileContext) -> bool:
        if self.allowed_segments & ctx.dir_parts:
            return False
        if any(ctx.relpath.endswith(sfx) for sfx in self.allowed_suffixes):
            return False
        if self.scope is None:
            return True
        return bool(self.scope & ctx.dir_parts)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        """Yield this rule's findings for one file."""
        raise NotImplementedError

    def check_project(
        self, files: dict[str, FileContext]
    ) -> Iterator[Diagnostic]:
        """Project-level findings (only if :attr:`project_level`)."""
        raise NotImplementedError

    def summary(self) -> str:
        doc = (self.__doc__ or "").strip().splitlines()
        return doc[0] if doc else ""


# ---------------------------------------------------------------------------
# PAS001: wall-clock time in deterministic code
# ---------------------------------------------------------------------------
#: The simulation's determinism boundary: everything here must read the
#: simulated clock (``engine.now`` / a ``now`` parameter), never the wall.
SIM_SCOPE = frozenset({"sim", "core", "cluster", "serving", "api"})

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register_rule
class WallClockRule(LintRule):
    """PAS001: wall-clock reads poison simulated time.

    ``time.time()``, ``perf_counter()``, ``datetime.now()`` etc. make a
    run's behavior depend on the host machine, so two runs of the same
    cell stop being byte-identical.  Simulation code must use the engine
    clock (``engine.now``, the ``now`` callback argument).  Sanctioned
    homes for wall-clock reads: ``serve/`` (the wall-clock pacer exists
    to anchor the simulated clock to real time — wall time decides
    *when* the engine is cranked, never the simulated outcome) and
    ``harness/cache.py`` (store timestamps, not results).
    """

    code = "PAS001"
    scope = None  # everywhere, minus the sanctioned scopes below
    allowed_segments = frozenset({"serve"})
    allowed_suffixes = ("harness/cache.py",)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_call(node, ctx.aliases)
            if origin in _WALL_CLOCK:
                yield ctx.diag(
                    node,
                    self.code,
                    f"wall-clock call {origin}() in deterministic code; "
                    f"use the simulated clock (engine.now / the `now` "
                    f"argument)",
                )


# ---------------------------------------------------------------------------
# PAS002: global/unseeded randomness
# ---------------------------------------------------------------------------
_GLOBAL_RANDOM = frozenset(
    {
        "betavariate",
        "binomialvariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


@register_rule
class GlobalRandomRule(LintRule):
    """PAS002: global random state is shared, unseeded, order-dependent.

    Module-level ``random.*`` functions and anything under
    ``numpy.random`` draw from process-global state: results then depend
    on import order, worker identity, and whatever else touched the
    stream.  Use a named seeded stream (:class:`repro.sim.rng.
    RandomStreams`) or an explicit ``random.Random(seed)`` instance.
    """

    code = "PAS002"
    scope = None

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_call(node, ctx.aliases)
            if origin is None:
                continue
            if origin.startswith("numpy.random."):
                yield ctx.diag(
                    node,
                    self.code,
                    f"global numpy random state ({origin}); use a seeded "
                    f"stream from repro.sim.rng",
                )
                continue
            head, _, func = origin.rpartition(".")
            if head == "random" and func in _GLOBAL_RANDOM:
                yield ctx.diag(
                    node,
                    self.code,
                    f"global random state (random.{func}); use a seeded "
                    f"stream from repro.sim.rng or random.Random(seed)",
                )


# ---------------------------------------------------------------------------
# PAS003: unordered iteration in event-emitting / placement code
# ---------------------------------------------------------------------------
_DICT_VIEWS = frozenset({"keys", "values", "items"})
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})


def _is_set_annotation(annotation: ast.expr) -> bool:
    text = ast.unparse(annotation)
    head = text.split("[", 1)[0].strip()
    return head in {"set", "frozenset", "Set", "FrozenSet", "AbstractSet",
                    "typing.Set", "typing.FrozenSet", "typing.AbstractSet"}


def _is_set_value(value: ast.expr | None) -> bool:
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in _SET_CONSTRUCTORS
    return False


def _symbol_key(target: ast.expr) -> str | None:
    """``x`` or ``self.x`` as a trackable symbol key (else None)."""
    if isinstance(target, ast.Name):
        return target.id
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return f"self.{target.attr}"
    return None


@register_rule
class UnorderedIterationRule(LintRule):
    """PAS003: hash-ordered iteration leaks into event/placement order.

    Iterating a ``set`` in code that emits events or places requests
    makes the schedule depend on hash order — identical across reruns of
    one binary, but not across machines, Python builds, or refactors
    that perturb insertion history.  Iterate a deterministic container
    (list, insertion-ordered registry) or wrap in ``sorted(...)``.
    ``dict.keys()/values()/items()`` iteration is flagged in the same
    scope as a readability/intent marker: plain dicts are
    insertion-ordered, so make the ordering claim explicit with
    ``sorted(...)`` or iterate an explicitly ordered structure.

    Single-file by construction: a set attribute iterated from another
    module (e.g. ``inst.requests`` from the monitor) is not seen — keep
    shared registries insertion-ordered at the type level instead.
    """

    code = "PAS003"
    scope = frozenset({"sim", "core", "cluster", "serving", "schedulers",
                       "shard"})

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        set_symbols = self._set_symbols(ctx.tree)
        for node in ast.walk(ctx.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                diag = self._check_iter(ctx, it, set_symbols)
                if diag is not None:
                    yield diag

    def _set_symbols(self, tree: ast.Module) -> frozenset[str]:
        symbols: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                key = _symbol_key(node.target)
                if key and _is_set_annotation(node.annotation):
                    symbols.add(key)
            elif isinstance(node, ast.Assign) and _is_set_value(node.value):
                for target in node.targets:
                    key = _symbol_key(target)
                    if key:
                        symbols.add(key)
            elif isinstance(node, ast.arg) and node.annotation is not None:
                if _is_set_annotation(node.annotation):
                    symbols.add(node.arg)
        return frozenset(symbols)

    def _check_iter(
        self, ctx: FileContext, it: ast.expr, set_symbols: frozenset[str]
    ) -> Diagnostic | None:
        # dict.keys()/.values()/.items() calls as the iterable.
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and it.func.attr in _DICT_VIEWS
            and not it.args
            and not it.keywords
        ):
            return ctx.diag(
                it,
                self.code,
                f"iteration over .{it.func.attr}() in event-emitting/"
                f"placement code without sorted(...); make the order "
                f"explicit",
            )
        # Literal sets / set(...) calls as the iterable.
        if _is_set_value(it):
            return ctx.diag(
                it,
                self.code,
                "iteration over a set in event-emitting/placement code; "
                "sets iterate in hash order — use sorted(...) or an "
                "ordered container",
            )
        # Names/attributes this file knows to be sets.
        key = _symbol_key(it)
        if key is not None and key in set_symbols:
            return ctx.diag(
                it,
                self.code,
                f"iteration over set `{key}` in event-emitting/placement "
                f"code; sets iterate in hash order — use sorted(...) or "
                f"an ordered container",
            )
        return None


# ---------------------------------------------------------------------------
# PAS004: float equality on simulated time
# ---------------------------------------------------------------------------
_TIME_NAMES = frozenset({"now", "t", "time", "deadline", "horizon"})
_TIME_SUFFIXES = ("_t", "_s", "_time", "_seconds", "_deadline")


def _timelike_name(name: str) -> bool:
    return name in _TIME_NAMES or name.endswith(_TIME_SUFFIXES)


def _timelike_expr(node: ast.expr) -> str | None:
    """The time-like name an expression reads, if any."""
    if isinstance(node, ast.Name) and _timelike_name(node.id):
        return node.id
    if isinstance(node, ast.Attribute) and _timelike_name(node.attr):
        return node.attr
    if isinstance(node, ast.BinOp):
        return _timelike_expr(node.left) or _timelike_expr(node.right)
    return None


@register_rule
class FloatTimeEqualityRule(LintRule):
    """PAS004: exact float equality on simulated-time expressions.

    Simulated timestamps are sums of float service times; two nominally
    simultaneous events can differ in the last ulp depending on
    accumulation order, so ``==``/``!=`` on them encodes an accident of
    arithmetic.  Compare with a tolerance, or order by the event
    sequence number the engine already provides.  (Deliberate exact tie
    detection — e.g. the event comparator — belongs in the baseline with
    a justification.)
    """

    code = "PAS004"
    scope = frozenset({"sim", "core", "cluster", "serving", "schedulers",
                       "api", "shard"})

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_none_check(left, right):
                    continue
                name = _timelike_expr(left) or _timelike_expr(right)
                if name is not None:
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield ctx.diag(
                        node,
                        self.code,
                        f"float {symbol} on simulated-time expression "
                        f"(`{name}`); compare with a tolerance or order "
                        f"by event sequence",
                    )

    @staticmethod
    def _is_none_check(left: ast.expr, right: ast.expr) -> bool:
        return any(
            isinstance(side, ast.Constant) and side.value is None
            for side in (left, right)
        )


# ---------------------------------------------------------------------------
# PAS006: unregistered cluster policies
# ---------------------------------------------------------------------------
_POLICY_BASES = frozenset({"ClusterPolicy"})


def _base_names(node: ast.ClassDef) -> set[str]:
    names = set()
    for base in node.bases:
        chain = dotted(base)
        if chain is not None:
            names.add(chain.rpartition(".")[2])
    return names


def _has_register_decorator(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        chain = dotted(target)
        if chain is not None and chain.rpartition(".")[2] == "register_policy":
            return True
    return False


def _module_level_registrations(tree: ast.Module) -> set[str]:
    """Class names passed to a module-level ``register_policy(X)`` call."""
    registered: set[str] = set()
    for stmt in tree.body:
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
            continue
        call = stmt.value
        chain = dotted(call.func)
        if chain is None or chain.rpartition(".")[2] != "register_policy":
            continue
        for arg in call.args:
            if isinstance(arg, ast.Name):
                registered.add(arg.id)
    return registered


@register_rule
class PolicyRegistrationRule(LintRule):
    """PAS006: policies outside the registry are dead or half-wired code.

    Every concrete :class:`ClusterPolicy` subclass must register
    (``@register_policy`` or a module-level ``register_policy(Cls)``
    call) so ``--list-policies``, the harness sweep and the invariant
    test matrix all see it.  Deliberate unregistered bases and fixtures
    belong under an inline ``# lint-ignore: PAS006``.
    """

    code = "PAS006"
    scope = None

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        registered_here = _module_level_registrations(ctx.tree)
        for node in ctx.tree.body:  # module-level classes only
            if not isinstance(node, ast.ClassDef):
                continue
            if not (_base_names(node) & _POLICY_BASES):
                continue
            if (
                not _has_register_decorator(node)
                and node.name not in registered_here
            ):
                yield ctx.diag(
                    node,
                    self.code,
                    f"ClusterPolicy subclass `{node.name}` is never "
                    f"registered; add @register_policy (or an inline "
                    f"ignore for deliberate bases/fixtures)",
                )


# ---------------------------------------------------------------------------
# PAS007: mutable default arguments
# ---------------------------------------------------------------------------
_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


@register_rule
class MutableDefaultRule(LintRule):
    """PAS007: mutable default arguments are shared across calls.

    A ``def f(x=[])`` default is evaluated once at definition time and
    mutated in place by every call — cross-request state smuggled
    through a signature.  Use ``None`` plus an in-body default (or a
    ``field(default_factory=...)`` on dataclasses).
    """

    code = "PAS007"
    scope = None

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield ctx.diag(
                        default,
                        self.code,
                        f"mutable default argument in `{node.name}`; "
                        f"default to None and construct inside the body",
                    )


# ---------------------------------------------------------------------------
# PAS008: lifecycle-subscriber signature drift
# ---------------------------------------------------------------------------
def _protocol_signatures() -> dict[str, tuple[str, ...]]:
    """Hook name -> canonical parameter names, from the live protocol.

    Derived from :class:`repro.api.session.SessionSubscriber` itself, so
    the rule can never drift from the protocol it enforces.
    """
    import inspect

    from repro.api.session import SessionSubscriber

    signatures: dict[str, tuple[str, ...]] = {}
    for name, member in vars(SessionSubscriber).items():
        if name.startswith("on_") and inspect.isfunction(member):
            signatures[name] = tuple(
                inspect.signature(member).parameters
            )
    return signatures


_SUBSCRIBER_BASES = frozenset({"SessionSubscriber", "EventPrinter"})


@register_rule
class SubscriberSignatureRule(LintRule):
    """PAS008: subscriber hooks with drifted signatures break silently.

    The session fan-out calls every hook positionally with the protocol
    signature (``on_admit(handle, now, instance_id)``, ...).  A subclass
    whose override renames, drops or adds parameters either crashes at
    dispatch time or — worse — silently shadows the base no-op under a
    typo'd name.  ``*args``/``**kwargs`` overrides are accepted as an
    explicit pass-through escape hatch.
    """

    code = "PAS008"
    scope = None

    def __init__(self) -> None:
        self._signatures: dict[str, tuple[str, ...]] | None = None

    def protocol(self) -> dict[str, tuple[str, ...]]:
        if self._signatures is None:
            self._signatures = _protocol_signatures()
        return self._signatures

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        protocol = self.protocol()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not (_base_names(node) & _SUBSCRIBER_BASES):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                canonical = protocol.get(item.name)
                if canonical is None:
                    if item.name.startswith("on_") and not item.name.startswith("_"):
                        yield ctx.diag(
                            item,
                            self.code,
                            f"`{node.name}.{item.name}` is not a "
                            f"SessionSubscriber hook (known hooks: "
                            f"{', '.join(sorted(protocol))}); typo'd "
                            f"overrides never fire",
                        )
                    continue
                if item.args.vararg is not None or item.args.kwarg is not None:
                    continue  # explicit pass-through escape hatch
                params = tuple(
                    a.arg
                    for a in (*item.args.posonlyargs, *item.args.args)
                )
                if params != canonical:
                    yield ctx.diag(
                        item,
                        self.code,
                        f"`{node.name}.{item.name}{params}` drifts from "
                        f"the protocol signature {canonical}; the "
                        f"session calls hooks positionally",
                    )
