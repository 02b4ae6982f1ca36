"""Anatomical bounds on the 48 variable skeleton parameters.

Bounds live in the same space as the parameter vector: deltas from the rest
configuration (radians for joint angles, meters for bone lengths).  Every
default range contains zero, so the rest pose always validates.  Generator
outputs are pushed into range by a saturating tanh squash, written once as
an autodiff tape node: training differentiates through it, and numpy callers
(``squash_params``, inference) run it on constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .skeleton import SkeletonTopology


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
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be equal-length 1D arrays")
        if not np.all(lo < hi):
            bad = int(np.argmin(hi - lo))
            raise ValueError(f"min must be below max for every id (id {bad})")
        for i, name in enumerate(self.names):
            if "knee" in name and not (-np.pi - 1e-12 <= lo[i] and hi[i] <= 1e-12):
                raise ValueError(f"knee bounds for {name} must lie within [-pi, 0]")

    def __eq__(self, other):
        return (isinstance(other, ConstraintTable)
                and np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)
                and self.names == other.names and self.kinds == other.kinds)

    def id_of(self, name: str) -> int:
        return self.names.index(name)

    def bounds_of(self, name: str) -> tuple[float, float]:
        i = self.id_of(name)
        return float(self.lo[i]), float(self.hi[i])


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


def squash_params(raw, table: ConstraintTable) -> np.ndarray:
    """``squash`` of unbounded reals (..., 48) into the table ranges, per id."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape[-1] != table.lo.shape[0]:
        raise ValueError(f"expected trailing dim {table.lo.shape[0]}, got {raw.shape}")
    with ad.Tape() as tape:
        return squash(tape.const(raw), table.lo, table.hi).values


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


# Default joint-angle ranges, degrees of delta from rest.  The knee range is
# the anatomical flexion interval; the elbow range keeps flexion positive so
# the mirror-image (backward-bending) configuration cannot be generated.
_ANGLE_RANGES_DEG = {
    "pelvis_roll": (-30, 30), "pelvis_yaw": (-40, 40), "pelvis_pitch": (-30, 30),
    "spine_pitch": (-30, 45), "spine_roll": (-30, 30), "spine_yaw": (-40, 40),
    "thorax_yaw": (-40, 40), "thorax_pitch": (-25, 35), "thorax_roll": (-25, 25),
    "neck_pitch": (-45, 45), "neck_roll": (-35, 35), "neck_yaw": (-70, 70),
    "head_nod": (-30, 30),
    "l_hip_pitch": (-110, 25), "l_hip_twist": (-40, 40), "l_hip_abduct": (-20, 50),
    "l_knee_flex": (-180, 0), "l_ankle_flex": (-45, 45),
    "r_hip_pitch": (-25, 110), "r_hip_twist": (-40, 40), "r_hip_abduct": (-50, 20),
    "r_knee_flex": (-180, 0), "r_ankle_flex": (-45, 45),
    "l_shoulder_twist": (-60, 60), "l_shoulder_abduct": (-70, 70),
    "l_shoulder_swing": (-85, 40), "l_elbow_flex": (0, 150), "l_wrist_flex": (-60, 60),
    "r_shoulder_twist": (-60, 60), "r_shoulder_abduct": (-70, 70),
    "r_shoulder_swing": (-40, 85), "r_elbow_flex": (0, 150), "r_wrist_flex": (-60, 60),
}

LENGTH_DELTA_FRACTION = 0.2  # bone-length deltas stay within +/-20% of rest


def build_constraint_table(topology: SkeletonTopology) -> ConstraintTable:
    """Default table for a topology: named angle ranges, +/-20% length deltas."""
    rest = topology.param_rest()
    lo = np.empty(len(topology.param_names))
    hi = np.empty(len(topology.param_names))
    for i, (name, kind) in enumerate(zip(topology.param_names, topology.param_kinds)):
        if kind == "angle":
            dlo, dhi = _ANGLE_RANGES_DEG[name]
            lo[i], hi[i] = np.deg2rad(dlo), np.deg2rad(dhi)
        else:
            # round away float dirt so the serialized table reparses exactly
            lo[i] = np.round(-LENGTH_DELTA_FRACTION * rest[i], 12)
            hi[i] = np.round(+LENGTH_DELTA_FRACTION * rest[i], 12)
    return ConstraintTable(lo=lo, hi=hi, names=topology.param_names, kinds=topology.param_kinds)


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


def table_from_text(text: str, source="<text>") -> ConstraintTable:
    """Parse ``param ID NAME KIND MIN MAX`` lines (``#`` comments and blank
    lines skipped) into a table indexed by id.

    Raises ValueError naming ``source`` and the line for a malformed line, a
    negative or duplicate id, an id that skips one (ids must run 0..N-1), or
    a file without ``param`` lines.
    """
    entries = {}
    line_of: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}: line {lineno}"
        tok = line.split()
        try:
            if tok[0] != "param":
                raise ValueError(f"unknown record {tok[0]!r}")
            i = int(tok[1])
            entry = (tok[2], tok[3], float(tok[4]), float(tok[5]))
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{where}: constraint parse error: {exc}") from exc
        if i < 0:
            raise ValueError(f"{where}: negative param id {i}")
        if i in entries:
            raise ValueError(f"{where}: param {i} already given at line {line_of[i]}")
        entries[i] = entry
        line_of[i] = lineno
    if not entries:
        raise ValueError(f"{source}: no param lines")
    for i in range(max(entries)):
        if i not in entries:
            after = min(k for k in entries if k > i)
            raise ValueError(f"{source}: line {line_of[after]}: param {after} given "
                             f"but param {i} is missing")
    n = len(entries)
    lo = np.empty(n)
    hi = np.empty(n)
    names, kinds = [], []
    for i in range(n):
        name, kind, a, b = entries[i]
        if kind == "angle":
            a, b = np.deg2rad(a), np.deg2rad(b)
        lo[i], hi[i] = a, b
        names.append(name)
        kinds.append(kind)
    return ConstraintTable(lo=lo, hi=hi, names=tuple(names), kinds=tuple(kinds))


def save_constraint_table(table: ConstraintTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(table_to_text(table))


def load_constraint_table(path) -> ConstraintTable:
    with open(path) as fh:
        return table_from_text(fh.read(), path)


_DEFAULT: dict[str, ConstraintTable] = {}


def default_constraint_table() -> ConstraintTable:
    """The shipped table (parsed from the packaged data file)."""
    if "table" not in _DEFAULT:
        resource = resources.files("dhpose").joinpath("data/constraints.txt")
        _DEFAULT["table"] = table_from_text(resource.read_text(), resource)
    return _DEFAULT["table"]
