"""Declarative sweep specs: axes, constraints, and matrix expansion.

A :class:`SweepSpec` names one *experiment kind* (a cell runner registered
in :mod:`repro.sweeps.cells`), a set of **axes** — each a named sequence of
values (topology, radio, execution mode, fault scenario, detector period,
workload, ``n``, ``seed``, …) — and a set of **constraints** that prune the
cartesian product.  :meth:`SweepSpec.expand` turns the spec into a run
matrix of :class:`SweepCell` entries, each carrying the merged parameter
dict and a content hash (:func:`cell_key`) that the cached executor in
:mod:`repro.sweeps.runner` uses as its cache key: editing one axis value
re-executes only the cells whose parameters actually changed.

Specs are plain data.  They can be built in code (a dataclass literal),
loaded from a dict, or loaded from a ``.toml`` / ``.json`` file via
:func:`load_spec` — the schema is documented in ``docs/SWEEPS.md``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import ConfigurationError, DuplicateAxisValueError

#: Bump to invalidate every cached cell result (e.g. when a cell runner's
#: output schema changes in a way the parameter hash cannot see).
CACHE_VERSION = 3


def _canonical(value: Any) -> Any:
    """JSON-safe canonical form of one parameter value (for hashing)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _canonical(val) for key, val in sorted(value.items())}
    raise ConfigurationError(
        f"sweep parameter values must be JSON-safe scalars/lists/dicts, "
        f"got {type(value).__name__}: {value!r}"
    )


def cell_key(experiment: str, params: Mapping[str, Any]) -> str:
    """Content hash of one cell: experiment kind + parameters + cache epoch.

    Two cells with identical parameters share a key — and therefore a
    cached result — regardless of which spec produced them or where in the
    matrix they sit.
    """
    payload = {
        "version": CACHE_VERSION,
        "experiment": experiment,
        "params": _canonical(dict(params)),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def _value_slug(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value).replace("/", "-").replace(" ", "")


@dataclass(frozen=True)
class Constraint:
    """One declarative pruning rule applied to every candidate cell.

    A cell *matches* the constraint when, for every axis named in ``when``,
    the cell's value is one of the listed values (an empty ``when`` matches
    every cell).  A matching cell is then

    * dropped outright if ``drop`` is true, or
    * kept only if, for every axis named in ``require``, the cell's value
      is among the allowed values.

    The canonical example — the sharded backend refuses lossy radios::

        Constraint(when={"execution": ("sharded",)},
                   require={"radio": ("reliable",)})
    """

    when: dict[str, tuple] = field(default_factory=dict)
    require: dict[str, tuple] = field(default_factory=dict)
    drop: bool = False

    def __post_init__(self) -> None:
        if not self.drop and not self.require:
            raise ConfigurationError(
                "a constraint must either 'drop' matching cells or "
                "'require' axis values for them"
            )
        for role, mapping in (("when", self.when), ("require", self.require)):
            for axis, values in mapping.items():
                if not isinstance(values, tuple) or not values:
                    raise ConfigurationError(
                        f"constraint {role}[{axis!r}] must be a non-empty "
                        f"tuple of values, got {values!r}"
                    )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Constraint":
        unknown = set(payload) - {"when", "require", "drop"}
        if unknown:
            raise ConfigurationError(
                f"unknown constraint field(s) {sorted(unknown)}; "
                "expected 'when', 'require', 'drop'"
            )

        def as_tuples(mapping: Mapping[str, Any]) -> dict[str, tuple]:
            result = {}
            for axis, values in mapping.items():
                if isinstance(values, (list, tuple)):
                    result[axis] = tuple(values)
                else:
                    result[axis] = (values,)
            return result

        return cls(
            when=as_tuples(payload.get("when", {})),
            require=as_tuples(payload.get("require", {})),
            drop=bool(payload.get("drop", False)),
        )

    def matches(self, params: Mapping[str, Any]) -> bool:
        return all(params.get(axis) in values for axis, values in self.when.items())

    def keeps(self, params: Mapping[str, Any]) -> bool:
        """Whether a cell with these parameters survives this constraint."""
        if not self.matches(params):
            return True
        if self.drop:
            return False
        return all(
            params.get(axis) in allowed for axis, allowed in self.require.items()
        )


@dataclass(frozen=True)
class SweepCell:
    """One fully-resolved point of the run matrix."""

    spec_name: str
    experiment: str
    #: Position in the expanded (post-constraint) matrix, 0-based.
    index: int
    #: Human-readable identity: the axis values that distinguish this cell.
    cell_id: str
    #: Merged ``base`` + axis parameters handed to the cell runner.
    params: dict[str, Any]
    #: Content hash — the cache key (see :func:`cell_key`).
    key: str


@dataclass(frozen=True)
class SweepSpec:
    """A declarative scenario sweep: one experiment kind times many axes."""

    name: str
    experiment: str
    axes: dict[str, tuple] = field(default_factory=dict)
    base: dict[str, Any] = field(default_factory=dict)
    constraints: tuple = ()

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").replace("-", "").isalnum():
            raise ConfigurationError(
                f"sweep name must be a [A-Za-z0-9_-]+ slug, got {self.name!r}"
            )
        for axis, values in self.axes.items():
            if not isinstance(values, tuple) or not values:
                raise ConfigurationError(
                    f"axis {axis!r} must be a non-empty tuple of values, "
                    f"got {values!r}"
                )
            if len(set(map(repr, values))) != len(values):
                raise DuplicateAxisValueError(
                    f"axis {axis!r} has duplicate values {values!r}: each "
                    "repeated value collapses two cells into one cache key, "
                    "so the sweep would run fewer independent cells than the "
                    "spec promises (a repeated seed silently halves the "
                    "sample count) — make every axis value unique"
                )
        overlap = set(self.axes) & set(self.base)
        if overlap:
            raise ConfigurationError(
                f"axes and base parameters overlap: {sorted(overlap)}"
            )
        for constraint in self.constraints:
            if not isinstance(constraint, Constraint):
                raise ConfigurationError(
                    f"constraints must be Constraint instances, got "
                    f"{type(constraint).__name__}"
                )

    def expand(self) -> list[SweepCell]:
        """The run matrix: constrained cartesian product, deterministic order.

        Axes iterate in sorted-name order and each axis's values in their
        declared order, so the same spec always yields the same matrix (and
        the same cell indices) regardless of dict construction history.
        """
        names = sorted(self.axes)
        cells: list[SweepCell] = []
        for combo in itertools.product(*(self.axes[name] for name in names)):
            axis_params = dict(zip(names, combo))
            params = {**self.base, **axis_params}
            if not all(c.keeps(params) for c in self.constraints):
                continue
            cell_id = (
                ",".join(f"{name}={_value_slug(axis_params[name])}" for name in names)
                or "default"
            )
            cells.append(
                SweepCell(
                    spec_name=self.name,
                    experiment=self.experiment,
                    index=len(cells),
                    cell_id=cell_id,
                    params=params,
                    key=cell_key(self.experiment, params),
                )
            )
        return cells

    def to_dict(self) -> dict:
        """JSON-safe round-trippable form (the ``load_spec`` schema)."""
        return {
            "name": self.name,
            "experiment": self.experiment,
            "axes": {axis: list(values) for axis, values in self.axes.items()},
            "base": _canonical(self.base),
            "constraints": [
                {
                    "when": {axis: list(vals) for axis, vals in c.when.items()},
                    "require": {axis: list(vals) for axis, vals in c.require.items()},
                    "drop": c.drop,
                }
                for c in self.constraints
            ],
        }


def spec_from_dict(payload: Mapping[str, Any]) -> SweepSpec:
    """Build a :class:`SweepSpec` from its dict/TOML/JSON schema."""
    unknown = set(payload) - {"name", "experiment", "axes", "base", "constraints"}
    if unknown:
        raise ConfigurationError(
            f"unknown sweep spec field(s) {sorted(unknown)}; expected "
            "'name', 'experiment', 'axes', 'base', 'constraints'"
        )
    for required in ("name", "experiment"):
        if not isinstance(payload.get(required), str):
            raise ConfigurationError(f"sweep spec needs a string {required!r} field")
    axes_in = payload.get("axes", {})
    if not isinstance(axes_in, Mapping):
        raise ConfigurationError("'axes' must be a table of axis -> value list")
    axes = {}
    for axis, values in axes_in.items():
        if not isinstance(values, (list, tuple)):
            raise ConfigurationError(
                f"axis {axis!r} must list its values, got {values!r}"
            )
        axes[axis] = tuple(values)
    constraints = tuple(
        Constraint.from_dict(entry) for entry in payload.get("constraints", ())
    )
    return SweepSpec(
        name=payload["name"],
        experiment=payload["experiment"],
        axes=axes,
        base=dict(payload.get("base", {})),
        constraints=constraints,
    )


def load_spec(source: "SweepSpec | Mapping[str, Any] | str | Path") -> SweepSpec:
    """Load a sweep spec from a spec object, dict, or ``.toml``/``.json`` file."""
    if isinstance(source, SweepSpec):
        return source
    if isinstance(source, Mapping):
        return spec_from_dict(source)
    path = Path(source)
    if not path.exists():
        raise ConfigurationError(f"sweep spec file not found: {path}")
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - Python < 3.11 only
            raise ConfigurationError(
                "TOML sweep specs need Python 3.11+ (tomllib); "
                "use the JSON schema instead"
            ) from exc
        with open(path, "rb") as handle:
            return spec_from_dict(tomllib.load(handle))
    if path.suffix == ".json":
        with open(path, encoding="utf-8") as handle:
            return spec_from_dict(json.load(handle))
    raise ConfigurationError(
        f"unsupported sweep spec format {path.suffix!r} (expected .toml or .json)"
    )
