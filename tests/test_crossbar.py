import pytest

from xbarsim import (
    CONFIG_00,
    CONFIG_01,
    CONFIG_10,
    CONFIG_11,
    CONFIGURATIONS,
    ControlMode,
    CrossbarSpec,
    Granularity,
    config_by_name,
    config_dimensions,
    isolation_transistor_count,
    permits,
    region_of,
    static_energy_weight,
    synapse_utilization,
)
from xbarsim.crossbar import legal_configurations, load_spec, save_spec
from xbarsim.errors import (
    CountExceedsCapacity,
    DimensionTooSmall,
    IllegalConfig,
    IndexOutOfRange,
    ValidationError,
)


def test_region_examples():
    spec = CrossbarSpec(n=128, n_h=64, n_l=64)
    assert region_of(0, 0, spec).kind == "A"
    assert region_of(127, 127, spec).kind == "B"
    assert region_of(0, 127, spec).kind == "C"


def test_region_partition_counts():
    for n, n_h, n_l in ((8, 3, 2), (16, 8, 8), (12, 0, 0), (10, 4, 6)):
        spec = CrossbarSpec(n=n, n_h=n_h, n_l=n_l)
        counts = {"A": 0, "B": 0, "C": 0}
        for r in range(n):
            for c in range(n):
                counts[region_of(r, c, spec).kind] += 1
        assert counts["A"] == n_h * n_h
        assert counts["B"] == n_l * n_l
        assert counts["C"] == n * n - n_h * n_h - n_l * n_l


def test_region_index_errors():
    spec = CrossbarSpec(n=8)
    with pytest.raises(IndexOutOfRange):
        region_of(8, 0, spec)
    with pytest.raises(IndexOutOfRange):
        region_of(0, -1, spec)


def test_config_dimensions_table():
    spec = CrossbarSpec(n=4, p=3, q=2)
    assert config_dimensions(CONFIG_00, spec) == (3, 2)
    assert config_dimensions(CONFIG_01, spec) == (4, 2)
    assert config_dimensions(CONFIG_10, spec) == (3, 4)
    assert config_dimensions(CONFIG_11, spec) == (4, 4)


def test_config_dimensions_degenerate():
    spec = CrossbarSpec(n=16)
    for cfg in CONFIGURATIONS:
        assert config_dimensions(cfg, spec) == (16, 16)


def test_single_control_legality():
    spec = CrossbarSpec(n=4, p=3, q=2, control=ControlMode.SINGLE)
    assert legal_configurations(spec) == (CONFIG_00, CONFIG_11)
    with pytest.raises(IllegalConfig):
        config_dimensions(CONFIG_01, spec)
    with pytest.raises(IllegalConfig):
        config_dimensions(CONFIG_10, spec)


def test_static_energy_weights():
    spec = CrossbarSpec(n=4, p=3, q=2)
    weights = [static_energy_weight(c, spec) for c in CONFIGURATIONS]
    assert weights == [6, 8, 12, 16]
    big = CrossbarSpec(n=128, p=96, q=96)
    assert static_energy_weight(CONFIG_00, big) == 9216
    base = CrossbarSpec(n=9)
    assert all(static_energy_weight(c, base) == 81 for c in CONFIGURATIONS)


def test_configuration_lattice():
    spec = CrossbarSpec(n=6, p=4, q=3)

    def cells(cfg):
        rows, cols = config_dimensions(cfg, spec)
        return {(r, c) for r in range(rows) for c in range(cols)}

    assert cells(CONFIG_00) <= cells(CONFIG_01) <= cells(CONFIG_11)
    assert cells(CONFIG_00) <= cells(CONFIG_10) <= cells(CONFIG_11)
    w = {cfg.name: static_energy_weight(cfg, spec) for cfg in CONFIGURATIONS}
    assert w["00"] <= w["01"] <= w["11"]
    assert w["00"] <= w["10"] <= w["11"]


def test_isolation_transistor_counts():
    assert isolation_transistor_count(4, Granularity.FINE) == 24
    assert isolation_transistor_count(4, Granularity.COARSE) == 8
    assert isolation_transistor_count(128, Granularity.COARSE) == 256
    for n in range(2, 40):
        fine = isolation_transistor_count(n, Granularity.FINE)
        coarse = isolation_transistor_count(n, Granularity.COARSE)
        assert fine == coarse * (n - 1)
    with pytest.raises(DimensionTooSmall):
        isolation_transistor_count(1, Granularity.FINE)


def test_synapse_utilization():
    assert synapse_utilization(4, 4) == pytest.approx(0.25)
    assert synapse_utilization(3, 4) == pytest.approx(0.1875)
    assert synapse_utilization(128, 128) == pytest.approx(0.0078125)
    assert synapse_utilization(0, 7) == 0.0
    with pytest.raises(CountExceedsCapacity):
        synapse_utilization(17, 4)


def test_permits():
    spec = CrossbarSpec(n=128, n_h=64, n_l=64)
    assert not permits(0, 0, "LRS1", spec)       # region A is HRS-only
    assert permits(0, 0, "HRS", spec)
    assert not permits(100, 100, "HRS", spec)    # region B is LRS1-only
    assert permits(100, 100, "LRS1", spec)
    for state in ("LRS1", "LRS2", "LRS3", "HRS"):
        assert permits(0, 127, state, spec)      # region C takes anything


def test_baseline_degeneracy():
    spec = CrossbarSpec(n=16)
    for r in (0, 7, 15):
        for c in (0, 7, 15):
            assert region_of(r, c, spec).kind == "C"
            for state in ("LRS1", "LRS2", "LRS3", "HRS"):
                assert permits(r, c, state, spec)


def test_spec_validation():
    with pytest.raises(ValidationError):
        CrossbarSpec(n=4, p=5)
    with pytest.raises(ValidationError):
        CrossbarSpec(n=4, q=0)
    with pytest.raises(ValidationError):
        CrossbarSpec(n=4, n_h=3, n_l=2)
    with pytest.raises(ValidationError):
        CrossbarSpec(n=0)


def test_spec_json_round_trip(tmp_path):
    spec = CrossbarSpec(n=128, n_h=64, n_l=64, p=96, q=96, control=ControlMode.SINGLE)
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    assert load_spec(path) == spec


def test_spec_json_integers_must_be_integral():
    assert CrossbarSpec.from_json({"n": 128.0, "p": 96.0}) == CrossbarSpec(n=128, p=96)
    for field, value in (("p", 95.7), ("n_h", True), ("q", 0.5)):
        with pytest.raises(ValidationError, match=f"bad crossbar spec document: {field}: expected an integer"):
            CrossbarSpec.from_json({"n": 128, field: value})


def test_config_by_name():
    assert config_by_name("01") is CONFIG_01
    assert config_by_name("10").rows_expanded is False
    assert config_by_name("10").cols_expanded is True
    with pytest.raises(IllegalConfig):
        config_by_name("02")
