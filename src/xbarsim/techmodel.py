"""Technology parameters and primitive latency models.

Two latency primitives:

* sensing delay of an NVM cell, a single-pole R_state * c_sense product, so
  HRS (73 kOhm) is always the slowest state to sense;
* parasitic delay of the wordline/bitline run, the Elmore delay of a uniform
  RC ladder tapped at the target cell. The ladder extends to the nearest open
  isolation transistor (Q cells on a collapsed wordline, P on a collapsed
  bitline) or to the full line otherwise, so collapsing a crossbar shortens
  the loaded line and the delay drops without moving the cell.

`tap_delays` is the one batch kernel (per active row and column: tap delay
plus isolation crossing); `path_latency` is its checked per-cell form.
`tap_delays` is memoized: a bounded cache keyed on (spec, config, tech)
returns one shared pair of read-only arrays per key, since every grid point
of a P/Q sweep asks for the same few shapes again.

Unit convention for the bundled presets: capacitances are normalized so that
one wordline RC segment at 45nm equals exactly 1 time unit, and capacitance
scales with 1/feature-size. The absolute time unit is arbitrary; every
cross-configuration result in this package is a ratio, which the unit choice
cannot affect. Pass your own TechnologyParams in SI units if you need
absolute seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from math import inf, isfinite

import numpy as np

from .crossbar import (
    HRS,
    LRS1,
    LRS2,
    LRS3,
    STATE_LABELS,
    Configuration,
    CrossbarSpec,
    config_dimensions,
    permits,
)
from .errors import OutOfActiveRegion, StateForbidden, ValidationError
from .files import json_floats, read_json, write_json


@dataclass(frozen=True)
class ResistanceState:
    label: str
    resistance: float  # ohms

    def __post_init__(self):
        if not 0 < self.resistance < inf:
            raise ValidationError(f"resistance must be positive and finite, got {self.resistance}")


# OxRRAM multilevel cell: four programmable levels, 2 bits per synapse.
DEFAULT_STATES = (
    ResistanceState(LRS1, 1_500.0),
    ResistanceState(LRS2, 5_780.0),
    ResistanceState(LRS3, 13_600.0),
    ResistanceState(HRS, 73_000.0),
)


@dataclass(frozen=True)
class TechnologyParams:
    feature_size_nm: float
    node_label: str
    r_wordline_unit: float  # ohms per cell pitch
    r_bitline_unit: float
    c_wordline_unit: float  # farads per cell pitch (normalized units in presets)
    c_bitline_unit: float
    c_sense: float          # load seen when sensing a cell
    t_iso_on: float         # delay of one isolation transistor on a current path
    leakage_per_cell: float
    e_spike: float = 23.6e-12       # joules per spike
    e_route_hop: float = 3e-12      # joules per routed spike per hop
    p_wordline_raise: float = 1e-13  # unit wordline-raise power
    states: tuple = DEFAULT_STATES

    def __post_init__(self):
        # Every value finite, so that each TechnologyParams has a JSON document.
        for name in _JSON_NUMBERS:
            value = getattr(self, name)
            if name != "t_iso_on" and not 0 < value < inf:
                raise ValidationError(f"{name} must be strictly positive and finite, got {value}")
        if not 0 <= self.t_iso_on < inf:
            raise ValidationError(f"t_iso_on must be finite and >= 0, got {self.t_iso_on}")
        labels = tuple(s.label for s in self.states)
        if labels != STATE_LABELS:
            raise ValidationError(f"states must be {STATE_LABELS} in order, got {labels}")
        res = [s.resistance for s in self.states]
        if any(a >= b for a, b in zip(res, res[1:])):
            raise ValidationError(f"state resistances must strictly increase LRS1<LRS2<LRS3<HRS, got {res}")

    def __hash__(self):
        # Hashed once: each tap_delays and corner_extremes cache lookup hashes the
        # parameters, which field by field costs about as much as the lookup.
        try:
            return vars(self)["_hash"]
        except KeyError:
            value = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self):
        # A str hashes differently in another process, so a pickle leaves the hash out.
        return {name: value for name, value in vars(self).items() if name != "_hash"}

    def state(self, label: str) -> ResistanceState:
        for s in self.states:
            if s.label == label:
                return s
        raise ValidationError(f"unknown resistance state {label!r}")

    def to_json(self) -> dict:
        return {"node": self.node_label, **{key: getattr(self, field) for field, key in _JSON_NUMBERS.items()},
                "states": [{"label": s.label, "ohms": s.resistance} for s in self.states]}

    @classmethod
    def from_json(cls, doc: dict) -> "TechnologyParams":
        try:
            node, states = doc["node"], doc["states"]
            if type(node) is not str:
                raise ValueError(f"node: expected a string, got {node!r}")
            ohms = json_floats([s["ohms"] for s in states], "ohms")
            return cls(node_label=node,
                       **{field: json_floats([doc[key]], key)[0] for field, key in _JSON_NUMBERS.items()},
                       states=tuple(ResistanceState(s["label"], r) for s, r in zip(states, ohms)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad technology document: {exc}") from exc


# The numeric fields of TechnologyParams and their keys in a technology document.
_JSON_NUMBERS = {
    "feature_size_nm": "feature_size_nm", "r_wordline_unit": "r_wl", "r_bitline_unit": "r_bl",
    "c_wordline_unit": "c_wl", "c_bitline_unit": "c_bl", "c_sense": "c_sense", "t_iso_on": "t_iso_on",
    "leakage_per_cell": "leakage_per_cell", "e_spike": "e_spike", "e_route_hop": "e_route_hop",
    "p_wordline_raise": "p_wordline_raise",
}


def load_tech(path) -> TechnologyParams:
    return TechnologyParams.from_json(read_json(path))


def save_tech(tech: TechnologyParams, path) -> None:
    write_json(tech.to_json(), path)


def _require_finite(tech: TechnologyParams, what: str, values) -> None:
    """Refuse non-finite values, naming the technology: each of its parameters
    is finite, but their products and sums can overflow."""
    if not all(map(isfinite, values)):
        raise ValidationError(f"technology {tech.node_label!r} gives a non-finite {what}: its values overflow")


_C_WL_45 = 0.4  # chosen so r_wl * c_wl = 1 at 45nm
_C_BL_45 = 1.0  # likewise for the bitline


def _preset(node: str, feature_nm: float, r_wl: float, r_bl: float) -> TechnologyParams:
    scale = 45.0 / feature_nm  # capacitance grows as the time-unit normalization shrinks the pitch
    return TechnologyParams(
        feature_size_nm=feature_nm,
        node_label=node,
        r_wordline_unit=r_wl,
        r_bitline_unit=r_bl,
        c_wordline_unit=_C_WL_45 * scale,
        c_bitline_unit=_C_BL_45 * scale,
        c_sense=0.25 * scale,
        t_iso_on=50.0 / scale,
        leakage_per_cell=1e-6,
    )


# Unit parasitic resistance rises as the node shrinks; 45nm and 16nm anchors
# are measured values, 32nm and 22nm are interpolated on the same trend.
PRESETS = {
    "45nm": _preset("45nm", 45.0, 2.5, 1.0),
    "32nm": _preset("32nm", 32.0, 4.2, 1.6),
    "22nm": _preset("22nm", 22.0, 6.5, 2.5),
    "16nm": _preset("16nm", 16.0, 10.0, 3.8),
}


def preset(node: str) -> TechnologyParams:
    try:
        return PRESETS[node]
    except KeyError:
        raise ValidationError(f"no bundled preset for {node!r}; have {sorted(PRESETS)}") from None


@dataclass(frozen=True)
class PathLatency:
    """Latency of one current path, split into its three physical parts."""

    parasitic_component: float
    sense_component: float
    iso_component: float

    @property
    def total(self) -> float:
        return self.parasitic_component + self.sense_component + self.iso_component


def sense_latency(state: ResistanceState, tech: TechnologyParams) -> float:
    """Time to sense a cell in the given state."""
    return state.resistance * tech.c_sense


def ladder_delay(segments, r_unit: float, c_unit: float):
    """Elmore delay at the end of a uniform RC ladder of `segments` (int or int array) stages."""
    if np.any(np.asarray(segments) < 0):
        raise ValidationError(f"segment count must be >= 0, got {segments}")
    return r_unit * c_unit * segments * (segments + 1) / 2.0


def line_tap_delay(position: int, line_length: int, r_unit: float, c_unit: float) -> float:
    """Elmore delay at tap `position` (1-based) on a `line_length`-segment line.

    Segments past the tap still load the line, which is why cutting the line
    at an isolation point reduces the delay of every cell before the cut.
    """
    if not (0 <= position <= line_length):
        raise ValidationError(f"tap {position} outside line of {line_length} segments")
    return ladder_delay(line_length, r_unit, c_unit) - ladder_delay(line_length - position, r_unit, c_unit)


def path_latency(row: int, col: int, state: ResistanceState, config: Configuration,
                 spec: CrossbarSpec, tech: TechnologyParams) -> PathLatency:
    """Full latency of the current path through cell (row, col), 0-based.

    The wordline run is loaded out to column Q when the column-side
    transistors are open (collapsed), out to N when closed (expanded);
    the bitline analogously with P. Crossing a closed isolation transistor
    adds t_iso_on per crossing.
    """
    rows, cols = config_dimensions(config, spec)
    if not (0 <= row < rows and 0 <= col < cols):
        raise OutOfActiveRegion(f"cell ({row},{col}) outside active {rows}x{cols} array of config '{config.name}'")
    if not permits(row, col, state.label, spec):
        raise StateForbidden(f"state {state.label} not permitted at ({row},{col})")
    wl_len = spec.n if config.cols_expanded else spec.q
    bl_len = spec.n if config.rows_expanded else spec.p
    parasitic = (line_tap_delay(col + 1, wl_len, tech.r_wordline_unit, tech.c_wordline_unit)
                 + line_tap_delay(row + 1, bl_len, tech.r_bitline_unit, tech.c_bitline_unit))
    crossings = int(config.rows_expanded and row >= spec.p) + int(config.cols_expanded and col >= spec.q)
    return PathLatency(parasitic_component=parasitic,
                       sense_component=sense_latency(state, tech),
                       iso_component=crossings * tech.t_iso_on)


def tap_delays(spec: CrossbarSpec, config: Configuration,
               tech: TechnologyParams) -> tuple[np.ndarray, np.ndarray]:
    """Per active row and per active column: tap delay plus isolation crossing.

    The batch form of path_latency: taps equal line_tap_delay bit for bit, so
    cell (r, c) in a given state takes row[r] + col[c] + sense_latency(state).
    Region rules are not checked. Results are memoized in a bounded cache
    keyed on (spec, config, tech); every caller shares the same read-only
    arrays, so writing to them raises ValueError.
    """
    return _tap_delays(spec, config, tech)


@lru_cache(maxsize=256)
def _tap_delays(spec: CrossbarSpec, config: Configuration,
                tech: TechnologyParams) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = config_dimensions(config, spec)

    def axis(count, cut, expanded, r_unit, c_unit):
        length = spec.n if expanded else cut
        k = np.arange(1, count + 1)
        tap = ladder_delay(length, r_unit, c_unit) - ladder_delay(length - k, r_unit, c_unit)
        delay = tap + tech.t_iso_on * (expanded & (k > cut))
        delay.setflags(write=False)
        return delay

    return (axis(rows, spec.p, config.rows_expanded, tech.r_bitline_unit, tech.c_bitline_unit),
            axis(cols, spec.q, config.cols_expanded, tech.r_wordline_unit, tech.c_wordline_unit))
