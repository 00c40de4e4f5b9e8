"""Partitioned crossbar geometry: regions, configurations, static analytics.

A crossbar is an N x N grid of NVM cells. Rows are wordlines (driven by
pre-synaptic neurons), columns are bitlines (sunk by post-synaptic neurons).
The partitioned variant splits every bitline between rows P and P+1 and every
wordline between columns Q and Q+1 (1-based, as printed on the hardware
schematics), giving four operating configurations selected by two control
bits. Resistance-state regions A (HRS-only) and B (LRS1-only) occupy the
near and far N_h/N_l squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    CountExceedsCapacity,
    DimensionTooSmall,
    IllegalConfig,
    IndexOutOfRange,
    ValidationError,
)
from .files import read_json, write_json

HRS = "HRS"
LRS1 = "LRS1"
LRS2 = "LRS2"
LRS3 = "LRS3"
STATE_LABELS = (LRS1, LRS2, LRS3, HRS)


class ControlMode(str, Enum):
    DOUBLE = "double"
    SINGLE = "single"


class Granularity(str, Enum):
    FINE = "fine"
    COARSE = "coarse"


@dataclass(frozen=True)
class CrossbarSpec:
    """The tuple <N, N_h, N_l, P, Q> plus the control-granularity flag.

    Baseline (unpartitioned, unconstrained) is n_h = n_l = 0, p = q = n.
    """

    n: int
    n_h: int = 0
    n_l: int = 0
    p: int | None = None
    q: int | None = None
    control: ControlMode = ControlMode.DOUBLE

    def __post_init__(self):
        if self.p is None:
            object.__setattr__(self, "p", self.n)
        if self.q is None:
            object.__setattr__(self, "q", self.n)
        if self.n < 1:
            raise ValidationError(f"crossbar dimension must be >= 1, got {self.n}")
        if not (1 <= self.p <= self.n and 1 <= self.q <= self.n):
            raise ValidationError(f"partition points must satisfy 1 <= P,Q <= N: P={self.p} Q={self.q} N={self.n}")
        if self.n_h < 0 or self.n_l < 0 or self.n_h + self.n_l > self.n:
            raise ValidationError(f"regions must satisfy 0 <= N_h, N_l and N_h+N_l <= N: N_h={self.n_h} N_l={self.n_l}")
        if not isinstance(self.control, ControlMode):
            object.__setattr__(self, "control", ControlMode(self.control))

    @property
    def is_baseline(self) -> bool:
        return self.n_h == 0 and self.n_l == 0 and self.p == self.n and self.q == self.n

    def to_json(self) -> dict:
        return {"n": self.n, "n_h": self.n_h, "n_l": self.n_l,
                "p": self.p, "q": self.q, "control": self.control.value}

    @classmethod
    def from_json(cls, doc: dict) -> "CrossbarSpec":
        try:
            return cls(n=int(doc["n"]), n_h=int(doc.get("n_h", 0)), n_l=int(doc.get("n_l", 0)),
                       p=int(doc["p"]) if "p" in doc else None,
                       q=int(doc["q"]) if "q" in doc else None,
                       control=ControlMode(doc.get("control", "double")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad crossbar spec document: {exc}") from exc


def load_spec(path) -> CrossbarSpec:
    return CrossbarSpec.from_json(read_json(path))


def save_spec(spec: CrossbarSpec, path) -> None:
    write_json(spec.to_json(), path)


@dataclass(frozen=True)
class Region:
    kind: str  # "A", "B", or "C"
    permitted_states: frozenset

    def permits(self, state_label: str) -> bool:
        return state_label in self.permitted_states


REGION_A = Region("A", frozenset({HRS}))
REGION_B = Region("B", frozenset({LRS1}))
REGION_C = Region("C", frozenset(STATE_LABELS))


@dataclass(frozen=True)
class Configuration:
    """One of the four crossbar shapes selected by the two control bits."""

    wl_iso_ctrl: int
    bl_iso_ctrl: int

    def __post_init__(self):
        if self.wl_iso_ctrl not in (0, 1) or self.bl_iso_ctrl not in (0, 1):
            raise ValidationError("control bits must be 0 or 1")

    @property
    def name(self) -> str:
        return f"{self.wl_iso_ctrl}{self.bl_iso_ctrl}"

    @property
    def rows_expanded(self) -> bool:
        # bl_iso_ctrl=1 closes the bitline isolation transistors, reaching rows >= P
        return self.bl_iso_ctrl == 1

    @property
    def cols_expanded(self) -> bool:
        return self.wl_iso_ctrl == 1


CONFIG_00 = Configuration(0, 0)
CONFIG_01 = Configuration(0, 1)
CONFIG_10 = Configuration(1, 0)
CONFIG_11 = Configuration(1, 1)
CONFIGURATIONS = (CONFIG_00, CONFIG_01, CONFIG_10, CONFIG_11)
_BY_NAME = {c.name: c for c in CONFIGURATIONS}


def config_by_name(name: str) -> Configuration:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise IllegalConfig(f"unknown configuration {name!r}") from None


def legal_configurations(spec: CrossbarSpec) -> tuple[Configuration, ...]:
    if spec.control is ControlMode.SINGLE:
        return (CONFIG_00, CONFIG_11)
    return CONFIGURATIONS


def region_of(row: int, col: int, spec: CrossbarSpec) -> Region:
    """Region of the cell at 0-based (row, col)."""
    if not (0 <= row < spec.n and 0 <= col < spec.n):
        raise IndexOutOfRange(f"cell ({row},{col}) outside {spec.n}x{spec.n} crossbar")
    if row < spec.n_h and col < spec.n_h:
        return REGION_A
    if row >= spec.n - spec.n_l and col >= spec.n - spec.n_l:
        return REGION_B
    return REGION_C


def permits(row: int, col: int, state_label: str, spec: CrossbarSpec) -> bool:
    """True if the cell's region admits the given resistance state."""
    return region_of(row, col, spec).permits(state_label)


def config_dimensions(config: Configuration, spec: CrossbarSpec) -> tuple[int, int]:
    """(rows, cols) of the active array under the given configuration."""
    if config not in legal_configurations(spec):
        raise IllegalConfig(f"configuration '{config.name}' illegal under single control")
    rows = spec.n if config.rows_expanded else spec.p
    cols = spec.n if config.cols_expanded else spec.q
    return rows, cols


def static_energy_weight(config: Configuration, spec: CrossbarSpec) -> int:
    """Active cell count; static energy is proportional to it."""
    rows, cols = config_dimensions(config, spec)
    return rows * cols


def isolation_transistor_count(n: int, granularity: Granularity) -> int:
    """Transistors needed to partition an N x N crossbar.

    Fine-grained places one between every adjacent cell pair on every line;
    coarse-grained places a single cut per line.
    """
    if n < 2:
        raise DimensionTooSmall(f"partitioning needs n >= 2, got {n}")
    if Granularity(granularity) is Granularity.FINE:
        return 2 * n * (n - 1)
    return 2 * n


def synapse_utilization(used_cells: int, n: int) -> float:
    """Fraction of the N^2 cells holding a synapse."""
    if not (0 <= used_cells <= n * n):
        raise CountExceedsCapacity(f"{used_cells} cells in a {n}x{n} crossbar")
    return used_cells / (n * n)
