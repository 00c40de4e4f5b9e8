"""Closed-form design analytics: cost-per-bit, capacity, die-area overhead."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class AreaModel:
    """Relative component geometry of a crossbar PE.

    Sense amplifier and isolation transistor heights are in multiples of
    one RRAM cell height, the isolation width in cell widths.
    """

    sense_amp_height_ratio: float = 384.0
    iso_height_ratio: float = 9.6
    iso_width_ratio: float = 1.3

    def __post_init__(self):
        for name in ("sense_amp_height_ratio", "iso_height_ratio", "iso_width_ratio"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")


def cost_per_bit(n: int, feature_size_nm: float) -> float:
    """Area per synaptic bit, nm^2/bit: F^2 * (27 + 2N) / N.

    2N neurons of 20T+1C plus N^2 1T-1R cells, over 2N^2 bits, with every
    device scaling as F^2.
    """
    if n < 1:
        raise ValidationError(f"dimension must be >= 1, got {n}")
    return feature_size_nm ** 2 * (27 + 2 * n) / n


def total_bits(n: int) -> int:
    """Synaptic capacity of an N x N crossbar at 2 bits per cell."""
    if n < 1:
        raise ValidationError(f"dimension must be >= 1, got {n}")
    return 2 * n * n


def die_area_overhead(n: int, model: AreaModel = AreaModel()) -> dict:
    """Isolation-transistor area overhead, in percent of crossbar height/width.

    One transistor row adds iso_height_ratio cell heights to a column of
    n cells plus the sense amplifier; one transistor column adds
    iso_width_ratio cell widths to a row of n cells.
    """
    if n < 1:
        raise ValidationError(f"dimension must be >= 1, got {n}")
    return {
        "height_pct": 100.0 * model.iso_height_ratio / (model.sense_amp_height_ratio + n),
        "width_pct": 100.0 * model.iso_width_ratio / n,
    }
