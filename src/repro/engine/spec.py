"""Declarative sweep specifications and hashable jobs.

A :class:`SweepSpec` describes a region of the design space as a set of
constants, grid axes (cartesian product), zip groups (axes that vary
together) and filters.  ``expand()`` turns the spec into a deterministic
list of parameter dictionaries, and ``jobs()`` wraps each point in a
hashable :class:`Job` bound to a named runner (see
:mod:`repro.engine.runners`).

Jobs hash stably: two jobs with the same runner and the same parameters
(regardless of insertion order) share the same ``key``, which is what the
result cache and the executor use to identify work.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

#: Parameter values must stay JSON-serialisable scalars so that jobs can be
#: hashed, cached on disk and shipped to worker processes.
ParamValue = Union[int, float, str, bool, None]
Params = Dict[str, ParamValue]


def _check_value(name: str, value: object) -> ParamValue:
    if value is not None and not isinstance(value, (int, float, str, bool)):
        raise TypeError(f"sweep parameter '{name}' must be a scalar "
                        f"(int/float/str/bool/None), got {type(value).__name__}")
    return value


def canonical_params(params: Mapping[str, ParamValue]) -> str:
    """Canonical JSON encoding of a parameter mapping (sorted, compact).

    Integral floats are normalised to integers so that ``nr=4`` and
    ``nr=4.0`` describe the same design point.
    """
    normalised = {}
    for name, value in params.items():
        _check_value(name, value)
        if isinstance(value, float) and not isinstance(value, bool) and value == int(value):
            value = int(value)
        normalised[name] = value
    return json.dumps(normalised, sort_keys=True, separators=(",", ":"))


def params_key(runner: str, params: Mapping[str, ParamValue], salt: str = "") -> str:
    """Stable content hash of (runner, params, salt)."""
    material = f"{runner}\n{canonical_params(params)}\n{salt}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Job:
    """One unit of sweep work: a runner name plus its parameters.

    ``params`` is stored as a sorted tuple of pairs so the dataclass stays
    hashable and usable as a dictionary key or set member.
    """

    runner: str
    params: Tuple[Tuple[str, ParamValue], ...]

    @classmethod
    def create(cls, runner: str, params: Mapping[str, ParamValue]) -> "Job":
        for name, value in params.items():
            _check_value(name, value)
        return cls(runner=runner, params=tuple(sorted(params.items())))

    @property
    def params_dict(self) -> Params:
        """Parameters as a plain (mutable) dictionary."""
        return dict(self.params)

    @property
    def key(self) -> str:
        """Content hash identifying the job (independent of code version)."""
        return params_key(self.runner, self.params_dict)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.runner}({inner})"


class SweepSpec:
    """Declarative description of a design-space sweep.

    Combinators return a *new* spec, so partial specs can be shared and
    extended without aliasing:

    >>> base = SweepSpec().constants(nr=4)
    >>> spec = base.grid(cores=(4, 8), frequency_ghz=(1.0, 1.4))
    >>> len(spec)
    4
    """

    def __init__(self) -> None:
        self._constants: Params = {}
        self._grid_axes: List[Tuple[str, Tuple[ParamValue, ...]]] = []
        self._zip_groups: List[List[Tuple[str, Tuple[ParamValue, ...]]]] = []
        self._filters: List[Callable[[Params], bool]] = []

    # -------------------------------------------------------------- helpers
    def _clone(self) -> "SweepSpec":
        clone = SweepSpec()
        clone._constants = dict(self._constants)
        clone._grid_axes = list(self._grid_axes)
        clone._zip_groups = [list(group) for group in self._zip_groups]
        clone._filters = list(self._filters)
        return clone

    def _axis_names(self) -> List[str]:
        names = list(self._constants)
        names.extend(name for name, _ in self._grid_axes)
        for group in self._zip_groups:
            names.extend(name for name, _ in group)
        return names

    def _check_new_axes(self, axes: Mapping[str, object]) -> None:
        existing = set(self._axis_names())
        for name in axes:
            if name in existing:
                raise ValueError(f"sweep axis '{name}' is already defined")

    @staticmethod
    def _as_values(name: str, values: object) -> Tuple[ParamValue, ...]:
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            values = (values,)
        out = tuple(_check_value(name, v) for v in values)
        if not out:
            raise ValueError(f"sweep axis '{name}' has no values")
        return out

    # ---------------------------------------------------------- combinators
    def constants(self, **fixed: ParamValue) -> "SweepSpec":
        """Fix parameters to a single value in every point."""
        self._check_new_axes(fixed)
        clone = self._clone()
        for name, value in fixed.items():
            clone._constants[name] = _check_value(name, value)
        return clone

    def grid(self, **axes: Sequence[ParamValue]) -> "SweepSpec":
        """Add axes combined as a cartesian product (in declaration order)."""
        self._check_new_axes(axes)
        clone = self._clone()
        for name, values in axes.items():
            clone._grid_axes.append((name, self._as_values(name, values)))
        return clone

    def zip(self, **axes: Sequence[ParamValue]) -> "SweepSpec":
        """Add a group of axes that vary together (like :func:`zip`).

        All axes in one ``zip`` call must have the same length; the group as
        a whole is crossed with the grid axes and any other zip groups.
        """
        self._check_new_axes(axes)
        if not axes:
            raise ValueError("zip() needs at least one axis")
        group = [(name, self._as_values(name, values)) for name, values in axes.items()]
        lengths = {len(values) for _, values in group}
        if len(lengths) != 1:
            detail = ", ".join(f"{name}[{len(values)}]" for name, values in group)
            raise ValueError(f"zip axes must have equal lengths: {detail}")
        clone = self._clone()
        clone._zip_groups.append(group)
        return clone

    def filter(self, predicate: Callable[[Params], bool]) -> "SweepSpec":
        """Keep only the points for which ``predicate(params)`` is true."""
        clone = self._clone()
        clone._filters.append(predicate)
        return clone

    # ------------------------------------------------------------ expansion
    def _iter_points(self) -> Iterator[Params]:
        grid_choices = [[(name, value) for value in values]
                        for name, values in self._grid_axes]
        zip_choices = []
        for group in self._zip_groups:
            length = len(group[0][1])
            zip_choices.append([[(name, values[i]) for name, values in group]
                                for i in range(length)])
        for grid_combo in itertools.product(*grid_choices):
            for zip_combo in itertools.product(*zip_choices):
                point = dict(self._constants)
                point.update(grid_combo)
                for pairs in zip_combo:
                    point.update(pairs)
                yield point

    def iter_points(self) -> Iterator[Params]:
        """Lazily yield parameter points in deterministic declaration order.

        Streaming twin of :meth:`expand`: nothing is materialised, so huge
        sweeps can be fed point-by-point into
        :meth:`repro.engine.executor.SweepExecutor.stream`.
        """
        for point in self._iter_points():
            if all(pred(point) for pred in self._filters):
                yield point

    def expand(self) -> List[Params]:
        """All parameter points, in deterministic declaration order."""
        return list(self.iter_points())

    def iter_jobs(self, runner: str) -> Iterator[Job]:
        """Lazily yield every point as a :class:`Job` bound to ``runner``."""
        for point in self.iter_points():
            yield Job.create(runner, point)

    def jobs(self, runner: str) -> List[Job]:
        """Wrap every point into a :class:`Job` bound to ``runner``."""
        return list(self.iter_jobs(runner))

    def __len__(self) -> int:
        return len(self.expand())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SweepSpec(constants={sorted(self._constants)}, "
                f"grid={[n for n, _ in self._grid_axes]}, "
                f"zip={[[n for n, _ in g] for g in self._zip_groups]}, "
                f"filters={len(self._filters)})")
