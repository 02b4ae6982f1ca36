"""Anatomical bounds on the 48 variable skeleton parameters.

Bounds live in the same space as the parameter vector: deltas from the rest
configuration (radians for joint angles, meters for bone lengths).  Every
default range contains zero, so the rest pose always validates.  Generator
outputs are pushed into range by a saturating tanh squash, written once as
an autodiff tape node: training differentiates through it, and inference
(``gan.generate_poses``) runs it on constants.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .skeleton import KNEE_IDS, N_ANGLE_PARAMS, N_PARAMS
from .textio import ParseError, dense, records


def _entry_fault(i: int, name: str, kind: str, lo: float, hi: float) -> str | None:
    """Why id ``i``'s bounds (radians or meters) are invalid, or None; the
    knee rule is keyed on the ids (``KNEE_IDS``), whatever their names."""
    if kind not in ("angle", "length"):
        return f"kind must be 'angle' or 'length', got {kind!r}"
    if not lo < hi:
        return f"min must be below max for {name}"
    if i in KNEE_IDS and not (-np.pi - 1e-12 <= lo and hi <= 1e-12):
        return f"knee bounds for {name} must lie within [-pi, 0]"
    return None


@dataclass(frozen=True)
class ConstraintTable:
    """Per-parameter [min, max] bounds indexed by canonical id."""

    lo: np.ndarray
    hi: np.ndarray
    names: tuple[str, ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not lo.shape == hi.shape == (len(self.names),) == (len(self.kinds),):
            raise ValueError("bounds, names and kinds must be equal-length 1D sequences")
        for i, entry in enumerate(zip(self.names, self.kinds, lo, hi)):
            if fault := _entry_fault(i, *entry):
                raise ValueError(f"id {i}: {fault}")

    def __eq__(self, other):
        return (isinstance(other, ConstraintTable)
                and np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)
                and self.names == other.names and self.kinds == other.kinds)

    def id_of(self, name: str) -> int:
        return self.names.index(name)


@dataclass(frozen=True)
class Violation:
    param_id: int
    name: str
    value: float
    bound: str  # "min" | "max"
    limit: float

    def __str__(self):
        rel = "<" if self.bound == "min" else ">"
        return f"param {self.param_id} ({self.name}): {self.value:.6g} {rel} {self.bound} {self.limit:.6g}"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.ok != (len(self.violations) == 0):
            raise ValueError("ok must be true exactly when there are no violations")


def squash(raw: Tensor, lo: np.ndarray, hi: np.ndarray) -> Tensor:
    """Map unbounded reals into [lo, hi], elementwise, as one tape node.

    ``lo + (1 + tanh(raw)) * (hi - lo) / 2``: strictly monotone and
    differentiable; the output saturates to the bounds for |raw| beyond ~18
    where tanh rounds to +/-1 in float64.  Raises ValueError on a non-finite
    raw value.
    """
    if not np.all(np.isfinite(raw.values)):
        raise ValueError("raw values must be finite")
    t = np.tanh(raw.values)
    half = (hi - lo) / 2.0

    def bwd(g):
        if raw.requires_grad:
            raw.accumulate(g * half * (1.0 - t * t))

    return ad.node("squash", lo + (1.0 + t) * (hi - lo) / 2.0, (raw,), bwd)


def validate_params(params, table: ConstraintTable) -> ValidationReport:
    """Flag every id outside its inclusive [min, max] interval.

    Raises ValueError naming the first id whose value is not finite."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != table.lo.shape:
        raise ValueError(f"expected {table.lo.shape[0]} parameters, got shape {params.shape}")
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"param {i} ({table.names[i]}) is not finite: {params[i]}")
    violations = []
    for i in np.flatnonzero((params < table.lo) | (params > table.hi)):
        bound = "min" if params[i] < table.lo[i] else "max"
        limit = table.lo[i] if bound == "min" else table.hi[i]
        violations.append(Violation(int(i), table.names[i], float(params[i]), bound, float(limit)))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def count_violations(params_batch, table: ConstraintTable) -> int:
    """Number of out-of-range entries across a (batch, 48) array."""
    p = np.asarray(params_batch, dtype=np.float64)
    return int(np.count_nonzero((p < table.lo) | (p > table.hi)))


def table_to_text(table: ConstraintTable) -> str:
    lines = ["# dhpose constraint table v1",
             "# deltas from rest: degrees for angle ids, meters for length ids",
             "# param <id> <name> <kind> <min> <max>"]
    for i, (name, kind) in enumerate(zip(table.names, table.kinds)):
        lo, hi = table.lo[i], table.hi[i]
        if kind == "angle":
            lo, hi = np.rad2deg(lo), np.rad2deg(hi)
        lines.append(f"param {i} {name} {kind} {lo:.9g} {hi:.9g}")
    return "\n".join(lines) + "\n"


def table_hash(table: ConstraintTable) -> str:
    """Stable 12-hex digest of ``table_to_text``; stamped into checkpoints."""
    return hashlib.sha256(table_to_text(table).encode()).hexdigest()[:12]


def table_from_text(text, source="<text>") -> ConstraintTable:
    """Parse ``param ID NAME KIND MIN MAX`` lines (``str`` or ``bytes``; line
    rules in ``textio``) into a table indexed by id.  The ids must run
    0..47, angles 0..32 and lengths 33..47 as in ``skeleton``; an entry of
    the other kind, or that ``_entry_fault`` rejects, raises ``ParseError``
    at its line."""
    entries = []
    for rec in records(text.splitlines(), source):
        _, i, name, kind, lo, hi = rec.fields("param", int, str, str, float, float)
        lo, hi = np.deg2rad([lo, hi]) if kind == "angle" else (lo, hi)
        if fault := _entry_fault(i, name, kind, lo, hi):
            raise rec.error(fault)
        if (kind == "angle") != (i < N_ANGLE_PARAMS):
            raise rec.error(f"param {i} is {kind!r}: ids 0..{N_ANGLE_PARAMS - 1} are angles, "
                            f"{N_ANGLE_PARAMS}..{N_PARAMS - 1} lengths")
        entries.append((rec, i, (name, kind, lo, hi)))
    names, kinds, lo, hi = zip(*dense(entries, "param", source))
    if len(names) != N_PARAMS:
        raise ParseError(source, None, f"{len(names)} params; the table needs {N_PARAMS}")
    return ConstraintTable(lo=np.array(lo), hi=np.array(hi), names=names, kinds=kinds)


def load_constraint_table(path) -> ConstraintTable:
    return table_from_text(Path(path).read_bytes(), path)


_DEFAULT: dict[str, ConstraintTable] = {}


# The shipped joint-angle ranges are degrees of delta from rest.  The knee
# range is the anatomical flexion interval; the elbow range keeps flexion
# positive so the mirror-image (backward-bending) configuration cannot be
# generated.  Bone-length deltas stay within +/-20% of rest.
def default_constraint_table() -> ConstraintTable:
    """The shipped table (parsed from the packaged data file)."""
    if "table" not in _DEFAULT:
        resource = resources.files("dhpose").joinpath("data/constraints.txt")
        _DEFAULT["table"] = table_from_text(resource.read_text(), resource)
    return _DEFAULT["table"]
