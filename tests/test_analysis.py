import pytest

from xbarsim import AreaModel, cost_per_bit, die_area_overhead, total_bits
from xbarsim.errors import ValidationError


def test_cost_per_bit_reference_point():
    assert cost_per_bit(128, 16) == pytest.approx(566.0)


def test_cost_per_bit_decreasing_in_dimension():
    values = [cost_per_bit(n, 16) for n in range(16, 257, 16)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_cost_per_bit_feature_scaling():
    for n in (16, 64, 128):
        assert cost_per_bit(n, 16) / cost_per_bit(n, 45) == pytest.approx((16 / 45) ** 2)
    assert cost_per_bit(64, 45) > cost_per_bit(64, 16)


def test_total_bits():
    assert total_bits(128) == 32768
    assert total_bits(1) == 2
    assert total_bits(4) == 32


def test_die_area_overhead_reference():
    overhead = die_area_overhead(128)
    assert overhead["height_pct"] == pytest.approx(100 * 9.6 / 512)   # 1.875
    assert overhead["width_pct"] == pytest.approx(100 * 1.3 / 128)    # 1.015625
    # within 0.05 percentage points of the reported 1.83% / 1.01%
    assert abs(overhead["height_pct"] - 1.83) <= 0.05
    assert abs(overhead["width_pct"] - 1.01) <= 0.05


def test_die_area_overhead_scaling():
    assert die_area_overhead(64)["height_pct"] == pytest.approx(100 * 9.6 / 448)
    h = [die_area_overhead(n)["height_pct"] for n in (32, 64, 128, 256, 1024)]
    w = [die_area_overhead(n)["width_pct"] for n in (32, 64, 128, 256, 1024)]
    assert all(a > b for a, b in zip(h, h[1:]))
    assert all(a > b for a, b in zip(w, w[1:]))
    assert die_area_overhead(10 ** 7)["height_pct"] < 0.001
    assert die_area_overhead(10 ** 7)["width_pct"] < 0.001


def test_area_model_defaults():
    model = AreaModel()
    assert model.sense_amp_height_ratio == 384.0
    assert model.iso_height_ratio == 9.6
    assert model.iso_width_ratio == 1.3


def test_validation():
    with pytest.raises(ValidationError):
        cost_per_bit(0, 16)
    with pytest.raises(ValidationError):
        total_bits(0)
    with pytest.raises(ValidationError):
        die_area_overhead(0)
    with pytest.raises(ValidationError):
        AreaModel(iso_height_ratio=-1)
