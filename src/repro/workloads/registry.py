"""Name-addressable scenario registry.

Every workload the repo ships is registered here under a stable name
with a *typed parameter spec*, so examples, benches, tests, the CLI and
— crucially — campaign worker processes can all construct the same
scenario from nothing but a string and a parameter mapping.

Three pieces:

* :class:`ScenarioRegistry` — maps ``name -> ScenarioSpec``.  Scenario
  functions register through the :func:`scenario` decorator; the
  parameter spec (names, types, defaults) is inferred from the
  function signature, so the registry validates and coerces parameters
  before a run ever starts.
* :class:`ScenarioRef` — the *portable* form of "scenario ``name`` with
  these parameters".  A ref is a frozen, picklable value object naming
  a scenario of the default registry; campaigns are built from refs,
  and whichever process runs a cell (a pool worker, or the caller at
  ``workers=1``) resolves the builder through its own :data:`REGISTRY`
  (see :mod:`repro.ptest.pool`).  Only ``(name, params)`` crosses the
  process boundary, never a builder.  Refs hash and
  compare by ``(name, sorted(params))`` (see the class docstring), so
  they double as the dedupe keys of the executor's batch tables in
  :mod:`repro.ptest.pool`.
* The module-level default registry (:data:`REGISTRY`) plus the
  :func:`scenario` / :func:`scenario_ref` / :func:`build_scenario`
  conveniences.  The default registry lazily imports
  :mod:`repro.workloads.scenarios` on first lookup so that worker
  processes (which never imported the scenario module themselves) still
  resolve every built-in name.

Builders registered here take ``(seed, **params)`` and return any
object with a ``.run() -> TestRunResult`` method (normally an
:class:`~repro.ptest.harness.AdaptiveTest`).

A scenario may also carry its ground truth: ``expect=`` is a function
of the scenario's parameters (defaults filled in) returning the
:class:`~repro.ptest.detector.AnomalyKind` a correct detector reports,
or ``None`` for a clean run.  ``ScenarioRef.expected()`` answers it for
one parameter point, so detection rates are scored against the same
registry that builds the runs.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.ptest.detector import AnomalyKind

#: Parameter types the spec knows how to coerce (CLI strings included).
_COERCIBLE = (bool, int, float, str)


@dataclass(frozen=True)
class ParamSpec:
    """One typed, defaulted parameter of a registered scenario."""

    name: str
    type: type
    default: Any

    def coerce(self, value: Any) -> Any:
        """Validate ``value`` against the spec, converting when safe.

        Accepts exact-type values, int->float widening, and string
        forms (so CLI ``--param key=value`` pairs round-trip); anything
        else raises :class:`~repro.errors.ConfigError`.
        """
        if self.type not in _COERCIBLE:
            return value  # opaque parameter: pass through untouched
        if self.type is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("1", "true", "yes", "on"):
                    return True
                if lowered in ("0", "false", "no", "off"):
                    return False
            raise ConfigError(
                f"parameter {self.name!r} expects a bool, got {value!r}"
            )
        if isinstance(value, bool):  # bool is an int subclass: reject
            raise ConfigError(
                f"parameter {self.name!r} expects {self.type.__name__}, "
                f"got bool {value!r}"
            )
        if isinstance(value, self.type):
            return value
        if self.type is float and isinstance(value, int):
            return float(value)
        if isinstance(value, str):
            try:
                return self.type(value)
            except ValueError:
                pass
        raise ConfigError(
            f"parameter {self.name!r} expects {self.type.__name__}, "
            f"got {value!r}"
        )

    def describe(self) -> str:
        return f"{self.name}: {self.type.__name__} = {self.default!r}"


@dataclass(frozen=True)
class ScenarioSpec:
    """A registered scenario: builder + parameter spec + description,
    plus its expectation when registered with ``expect=``."""

    name: str
    builder: Callable[..., Any]
    params: tuple[ParamSpec, ...]
    description: str = ""
    #: ``expect(**params)`` -> the anomaly kind a correct detector
    #: reports at those parameters, or ``None`` for a clean run.  A
    #: scenario registered without ``expect=`` has no expectation,
    #: which is not the same as expecting a clean run.
    expect: "Callable[..., AnomalyKind | None] | None" = None

    def param(self, name: str) -> ParamSpec:
        for spec in self.params:
            if spec.name == name:
                return spec
        known = [spec.name for spec in self.params]
        raise ConfigError(
            f"scenario {self.name!r} has no parameter {name!r}; "
            f"known: {known}"
        )

    def validate(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Coerce ``params`` against the spec; unknown names raise."""
        return {name: self.param(name).coerce(value) for name, value in params.items()}

    def expected(
        self, params: Mapping[str, Any] | None = None
    ) -> "AnomalyKind | None":
        """The anomaly kind ``expect`` gives at ``params`` over the
        defaults; a scenario without ``expect=`` raises ConfigError."""
        if self.expect is None:
            raise ConfigError(f"scenario {self.name!r} has no expectation")
        full = {spec.name: spec.default for spec in self.params}
        full.update(self.validate(params or {}))
        return self.expect(**full)

    def describe(self) -> str:
        signature = ", ".join(spec.describe() for spec in self.params)
        return f"{self.name}({signature})"


def _infer_params(builder: Callable[..., Any]) -> tuple[ParamSpec, ...]:
    """Derive the parameter spec from the builder's signature.

    The first parameter is the seed (by convention); every following
    parameter must have a default, whose runtime type becomes the
    spec's type (``None`` defaults stay uncoerced).
    """
    signature = inspect.signature(builder)
    names = list(signature.parameters)
    if not names:
        raise ConfigError(
            f"scenario builder {builder!r} must accept a seed parameter"
        )
    specs = []
    for name in names[1:]:
        parameter = signature.parameters[name]
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            raise ConfigError(
                f"scenario builder {builder!r} may not use *args/**kwargs"
            )
        if parameter.default is inspect.Parameter.empty:
            raise ConfigError(
                f"scenario parameter {name!r} of {builder!r} needs a default"
            )
        default = parameter.default
        kind = type(default) if default is not None else object
        specs.append(ParamSpec(name=name, type=kind, default=default))
    return tuple(specs)


@dataclass
class ScenarioRegistry:
    """Maps scenario names to builders with typed parameter specs.

    ``loader`` (when set) is invoked once before the first lookup that
    would otherwise miss — the default registry uses it to import the
    built-in scenario module, so freshly-spawned worker processes
    resolve names without any caller-side imports.
    """

    loader: Callable[[], None] | None = None
    _specs: dict[str, ScenarioSpec] = field(default_factory=dict)
    _loaded: bool = False
    #: Bumped on every successful registration.  Warm worker pools
    #: record the default registry's version at spawn and respawn when
    #: it moves, so workers forked before a late ``@scenario``
    #: registration never serve stale name tables.
    version: int = 0

    def register(
        self,
        name: str,
        builder: Callable[..., Any] | None = None,
        *,
        description: str | None = None,
        expect: "Callable[..., AnomalyKind | None] | None" = None,
    ):
        """Register ``builder`` under ``name`` (usable as a decorator).

        The description defaults to the docstring's first paragraph;
        ``expect`` is the scenario's ground truth (see
        :attr:`ScenarioSpec.expect`).  Duplicate names raise
        ``ValueError`` — names are the public, stable addressing scheme
        and silent replacement would make a campaign's meaning depend
        on import order.
        """

        def add(fn: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._specs:
                raise ValueError(f"scenario {name!r} already registered")
            doc = description
            if doc is None:
                paragraph = re.split(r"\n\s*\n", inspect.getdoc(fn) or "", 1)[0]
                doc = " ".join(paragraph.split())
            self._specs[name] = ScenarioSpec(
                name=name,
                builder=fn,
                params=_infer_params(fn),
                description=doc,
                expect=expect,
            )
            self.version += 1
            return fn

        if builder is not None:
            return add(builder)
        return add

    def _ensure_loaded(self) -> None:
        if self.loader is not None and not self._loaded:
            self._loaded = True  # before the call: loader may recurse
            try:
                self.loader()
            except BaseException:
                # Surface the real import failure again on the next
                # lookup instead of a misleading empty-registry error.
                self._loaded = False
                raise

    def get(self, name: str) -> ScenarioSpec:
        self._ensure_loaded()
        try:
            return self._specs[name]
        except KeyError:
            raise ConfigError(
                f"unknown scenario {name!r}; known: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        self._ensure_loaded()
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        self._ensure_loaded()
        return name in self._specs

    def __iter__(self) -> Iterator[ScenarioSpec]:
        self._ensure_loaded()
        return iter([self._specs[name] for name in self.names()])

    def build(
        self, name: str, seed: int, params: Mapping[str, Any] | None = None
    ) -> Any:
        """Instantiate scenario ``name`` for ``seed`` (validating params)."""
        spec = self.get(name)
        validated = spec.validate(params or {})
        return spec.builder(seed, **validated)


@dataclass(frozen=True, eq=False)
class ScenarioRef:
    """A picklable ``(scenario name, parameters)`` pair.

    A ref names a scenario of the default registry; the process that
    runs a cell resolves the builder there (see
    :mod:`repro.ptest.pool`), so no scenario builder (lambda, closure,
    bound method, whatever) ever crosses a process boundary itself.

    **Batch-table equality contract.**  Refs are value objects:
    equality and hash are defined over ``(name, sorted(params))`` and
    nothing else, so two refs naming the same scenario with the same
    parameters always collapse to one entry in a dict/set.  The batched
    wire format of :mod:`repro.ptest.pool` keys on this: a batch table
    ships each distinct ref once — so every parameter value must itself
    be hashable, which is enforced at construction time rather than at
    the first table insert.  Parameter order is canonicalised (sorted
    by name) in ``__post_init__``, so hand-built refs dedupe exactly
    like registry-minted ones.
    """

    name: str
    #: Sorted ``(key, value)`` pairs — hashable and order-canonical.
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        raw = self.params
        if isinstance(raw, Mapping):  # ergonomic: accept {'k': v} too
            raw = raw.items()
        try:
            pairs = tuple((key, value) for key, value in raw)
            canonical = tuple(sorted(pairs, key=lambda kv: kv[0]))
        except (TypeError, ValueError):
            raise ConfigError(
                f"ScenarioRef params must be a mapping or (key, value) "
                f"pairs, got {self.params!r}"
            ) from None
        object.__setattr__(self, "params", canonical)
        previous = None
        for key, value in canonical:
            if not isinstance(key, str):
                raise ConfigError(
                    f"ScenarioRef parameter names must be strings, "
                    f"got {key!r}"
                )
            if key == previous:
                raise ConfigError(
                    f"duplicate parameter {key!r} in ScenarioRef for "
                    f"{self.name!r}"
                )
            previous = key
            try:
                hash(value)
            except TypeError:
                raise ConfigError(
                    f"scenario parameter {key!r} of {self.name!r} has "
                    f"unhashable value {value!r} ({type(value).__name__}); "
                    "ScenarioRef parameters must be hashable to serve as "
                    "batch-table keys"
                ) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioRef):
            return NotImplemented
        return (self.name, self.params) == (other.name, other.params)

    def __hash__(self) -> int:
        return hash((self.name, self.params))

    def expected(self) -> "AnomalyKind | None":
        """The anomaly kind a correct detector reports for this ref's
        scenario at its parameters (``None``: a clean run); see
        :meth:`ScenarioSpec.expected`."""
        return REGISTRY.get(self.name).expected(dict(self.params))

    def with_params(self, **params: Any) -> "ScenarioRef":
        """A new ref with ``params`` overlaid on this ref's parameters."""
        merged = dict(self.params)
        merged.update(params)
        return scenario_ref(self.name, **merged)

    def describe(self) -> str:
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}({rendered})"


def _load_builtin_scenarios() -> None:
    """Import the built-in scenario module for its registration side
    effects (runs at most once, lazily, in every process)."""
    import repro.workloads.scenarios  # noqa: F401


#: The process-wide default registry, holding the built-in workloads.
REGISTRY = ScenarioRegistry(loader=_load_builtin_scenarios)

#: Decorator registering a scenario in the default registry.
scenario = REGISTRY.register


def scenario_ref(name: str, **params: Any) -> ScenarioRef:
    """A :class:`ScenarioRef` to ``name`` with ``params``, validated
    against the default registry."""
    validated = REGISTRY.get(name).validate(params)
    return ScenarioRef(name=name, params=tuple(sorted(validated.items())))


def build_scenario(name: str, seed: int = 0, **params: Any) -> Any:
    """Build one scenario instance from the default registry."""
    return REGISTRY.build(name, seed, params)


def scenario_names() -> list[str]:
    """All names in the default registry (imports built-ins)."""
    return REGISTRY.names()
