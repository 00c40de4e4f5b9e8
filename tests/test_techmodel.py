import dataclasses

import numpy as np
import pytest

from xbarsim import (
    CONFIG_00,
    CONFIG_11,
    CONFIGURATIONS,
    DEFAULT_STATES,
    CrossbarSpec,
    ResistanceState,
    ladder_delay,
    line_tap_delay,
    load_tech,
    path_latency,
    preset,
    save_tech,
    sense_latency,
    tap_delays,
)
from xbarsim import techmodel
from xbarsim.errors import OutOfActiveRegion, StateForbidden, ValidationError
from xbarsim.techmodel import PRESETS

from conftest import MEMO_SPECS, elmore_tap_oracle


def test_default_states_values_and_order():
    labels = [s.label for s in DEFAULT_STATES]
    ohms = [s.resistance for s in DEFAULT_STATES]
    assert labels == ["LRS1", "LRS2", "LRS3", "HRS"]
    assert ohms == [1500.0, 5780.0, 13600.0, 73000.0]
    assert all(a < b for a, b in zip(ohms, ohms[1:]))
    assert max(DEFAULT_STATES, key=lambda s: s.resistance).label == "HRS"


def test_preset_resistance_anchors():
    assert preset("45nm").r_wordline_unit == pytest.approx(2.5)
    assert preset("45nm").r_bitline_unit == pytest.approx(1.0)
    assert preset("16nm").r_wordline_unit == pytest.approx(10.0)
    assert preset("16nm").r_bitline_unit == pytest.approx(3.8)


def test_preset_resistance_monotone_with_scaling():
    nodes = ["45nm", "32nm", "22nm", "16nm"]
    r_wl = [preset(n).r_wordline_unit for n in nodes]
    r_bl = [preset(n).r_bitline_unit for n in nodes]
    assert all(a <= b for a, b in zip(r_wl, r_wl[1:]))
    assert all(a <= b for a, b in zip(r_bl, r_bl[1:]))


def test_unknown_preset():
    with pytest.raises(ValidationError):
        preset("7nm")


def test_sense_latency_order_and_determinism():
    tech = preset("16nm")
    lrs1 = sense_latency(tech.state("LRS1"), tech)
    hrs = sense_latency(tech.state("HRS"), tech)
    assert hrs > lrs1
    assert sense_latency(tech.state("HRS"), tech) == hrs


def test_sense_latency_physical_units():
    # LRS1 across a 1 fF sense load: 1.5 kOhm * 1 fF = 1.5 ps
    tech = dataclasses.replace(preset("45nm"), c_sense=1e-15)
    assert sense_latency(tech.state("LRS1"), tech) == pytest.approx(1.5e-12, rel=1e-12)


def test_ladder_delay_closed_form_against_oracle():
    r, c = 3.7, 0.21
    assert ladder_delay(0, r, c) == 0.0
    assert ladder_delay(1, r, c) == pytest.approx(r * c)
    assert ladder_delay(3, r, c) == pytest.approx(6 * r * c)
    for n in range(12):
        assert ladder_delay(n, r, c) == pytest.approx(elmore_tap_oracle(n, n, r, c))


def test_ladder_delay_strictly_increasing():
    values = [ladder_delay(n, 2.0, 0.5) for n in range(20)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_line_tap_delay_against_oracle():
    r, c = 1.9, 0.33
    for length in (1, 2, 5, 9):
        for k in range(1, length + 1):
            assert line_tap_delay(k, length, r, c) == pytest.approx(
                elmore_tap_oracle(k, length, r, c))


def test_tap_delays_equal_line_tap_delay_bit_for_bit():
    spec = CrossbarSpec(n=12, n_h=3, n_l=3, p=8, q=7)
    for tech in (preset("45nm"), preset("16nm")):
        for config in CONFIGURATIONS:
            row, col = tap_delays(spec, config, tech)
            bl_len = spec.n if config.rows_expanded else spec.p
            wl_len = spec.n if config.cols_expanded else spec.q
            assert len(row) == bl_len and len(col) == wl_len
            for r, value in enumerate(row):
                tap = line_tap_delay(r + 1, bl_len, tech.r_bitline_unit, tech.c_bitline_unit)
                assert value == tap + (tech.t_iso_on if r >= spec.p else 0.0)
            for c, value in enumerate(col):
                tap = line_tap_delay(c + 1, wl_len, tech.r_wordline_unit, tech.c_wordline_unit)
                assert value == tap + (tech.t_iso_on if c >= spec.q else 0.0)


def test_tap_delays_memo_equals_uncached_kernel_bit_for_bit():
    uncached = techmodel._tap_delays.__wrapped__
    for tech in PRESETS.values():
        for config in CONFIGURATIONS:
            for spec in MEMO_SPECS:
                got, want = tap_delays(spec, config, tech), uncached(spec, config, tech)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert tap_delays(spec, config, tech)[0] is got[0]  # the shared entry


def test_tap_delays_entries_are_read_only_and_bounded():
    row, col = tap_delays(MEMO_SPECS[0], CONFIG_11, preset("45nm"))
    for values in (row, col):
        with pytest.raises(ValueError):
            values[0] = 0.0
    maxsize = techmodel._tap_delays.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_tap_delays_keys_on_every_field():
    spec, tech = MEMO_SPECS[0], preset("45nm")
    before = tap_delays(spec, CONFIG_11, tech)
    for other_tech, other_spec in ((dataclasses.replace(tech, t_iso_on=2 * tech.t_iso_on), spec),
                                   (dataclasses.replace(tech, r_wordline_unit=3.0), spec),
                                   (tech, dataclasses.replace(spec, q=6))):
        got = tap_delays(other_spec, CONFIG_11, other_tech)
        want = techmodel._tap_delays.__wrapped__(other_spec, CONFIG_11, other_tech)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert not all(np.array_equal(a, b) for a, b in zip(got, before))


def test_path_latency_worst_cell_iso_count():
    # 4x4 crossbar split at P=3, Q=2: farthest cell under full expansion
    # crosses both isolation transistors.
    spec = CrossbarSpec(n=4, p=3, q=2)
    tech = preset("45nm")
    pl = path_latency(3, 3, tech.state("HRS"), CONFIG_11, spec, tech)
    assert pl.iso_component == pytest.approx(2 * tech.t_iso_on)
    assert pl.total == pl.parasitic_component + pl.sense_component + pl.iso_component


def test_path_latency_nearest_cell_collapsed():
    spec = CrossbarSpec(n=4, p=3, q=2)
    tech = preset("45nm")
    pl = path_latency(0, 0, tech.state("LRS1"), CONFIG_00, spec, tech)
    assert pl.iso_component == 0.0
    # collapsed lines: wordline loaded out to Q=2 cells, bitline to P=3
    expected = (elmore_tap_oracle(1, 2, tech.r_wordline_unit, tech.c_wordline_unit)
                + elmore_tap_oracle(1, 3, tech.r_bitline_unit, tech.c_bitline_unit))
    assert pl.parasitic_component == pytest.approx(expected)


def test_collapsed_parasitic_strictly_below_baseline():
    # Same cell (2,1): the collapsed configuration cuts the line load at the
    # isolation points, so its parasitic delay drops.
    tech = preset("45nm")
    part = CrossbarSpec(n=4, p=3, q=2)
    base = CrossbarSpec(n=4)
    collapsed = path_latency(2, 1, tech.state("LRS2"), CONFIG_00, part, tech)
    baseline = path_latency(2, 1, tech.state("LRS2"), CONFIG_11, base, tech)
    assert collapsed.parasitic_component < baseline.parasitic_component
    expected_collapsed = (elmore_tap_oracle(2, 2, tech.r_wordline_unit, tech.c_wordline_unit)
                          + elmore_tap_oracle(3, 3, tech.r_bitline_unit, tech.c_bitline_unit))
    expected_base = (elmore_tap_oracle(2, 4, tech.r_wordline_unit, tech.c_wordline_unit)
                     + elmore_tap_oracle(3, 4, tech.r_bitline_unit, tech.c_bitline_unit))
    assert collapsed.parasitic_component == pytest.approx(expected_collapsed)
    assert baseline.parasitic_component == pytest.approx(expected_base)


def test_path_latency_errors():
    spec = CrossbarSpec(n=4, n_h=2, p=3, q=2)
    tech = preset("45nm")
    with pytest.raises(OutOfActiveRegion):
        path_latency(3, 3, tech.state("HRS"), CONFIG_00, spec, tech)
    with pytest.raises(StateForbidden):
        path_latency(0, 0, tech.state("LRS1"), CONFIG_11, spec, tech)


def test_path_latency_monotone_in_row_col_state(rng):
    tech = preset("22nm")
    spec = CrossbarSpec(n=16)  # baseline: all states everywhere
    states = sorted(tech.states, key=lambda s: s.resistance)
    for _ in range(50):
        r = int(rng.integers(0, 15))
        c = int(rng.integers(0, 15))
        s = states[int(rng.integers(0, 4))]
        here = path_latency(r, c, s, CONFIG_11, spec, tech).total
        assert path_latency(r + 1, c, s, CONFIG_11, spec, tech).total >= here
        assert path_latency(r, c + 1, s, CONFIG_11, spec, tech).total >= here
    for a, b in zip(states, states[1:]):
        assert (path_latency(3, 3, b, CONFIG_11, spec, tech).total
                > path_latency(3, 3, a, CONFIG_11, spec, tech).total)


def _random_tech(rng):
    return dataclasses.replace(
        preset("45nm"),
        r_wordline_unit=float(rng.uniform(0.5, 20)),
        r_bitline_unit=float(rng.uniform(0.5, 20)),
        c_wordline_unit=float(rng.uniform(0.05, 5)),
        c_bitline_unit=float(rng.uniform(0.05, 5)),
        c_sense=float(rng.uniform(0.001, 1)),
        t_iso_on=float(rng.uniform(0, 500)),
        states=(ResistanceState("LRS1", float(rng.uniform(100, 2000))),
                ResistanceState("LRS2", float(rng.uniform(3000, 8000))),
                ResistanceState("LRS3", float(rng.uniform(9000, 20000))),
                ResistanceState("HRS", float(rng.uniform(30000, 99000)))),
    )


def test_two_path_theorem_randomized(rng):
    # Two cells on the baseline crossbar, shortest (0,0) and longest
    # (N-1,N-1). Adverse: HRS far, LRS1 near -> spread D+d. Balanced:
    # HRS near, LRS1 far -> spread |D-d|.
    spec = CrossbarSpec(n=32)
    for _ in range(1000):
        tech = _random_tech(rng)
        lrs1, hrs = tech.state("LRS1"), tech.state("HRS")
        near_p = path_latency(0, 0, lrs1, CONFIG_11, spec, tech).parasitic_component
        far_p = path_latency(31, 31, lrs1, CONFIG_11, spec, tech).parasitic_component
        big_delta = far_p - near_p
        small_delta = sense_latency(hrs, tech) - sense_latency(lrs1, tech)

        adverse = [path_latency(0, 0, lrs1, CONFIG_11, spec, tech).total,
                   path_latency(31, 31, hrs, CONFIG_11, spec, tech).total]
        spread = max(adverse) - min(adverse)
        assert spread == pytest.approx(big_delta + small_delta, rel=1e-12)

        balanced = [path_latency(0, 0, hrs, CONFIG_11, spec, tech).total,
                    path_latency(31, 31, lrs1, CONFIG_11, spec, tech).total]
        spread = max(balanced) - min(balanced)
        assert spread == pytest.approx(abs(big_delta - small_delta), rel=1e-12)


def test_two_path_forced_by_regions():
    # With N_h = N_l = 1 the corner cells are forced into the balanced
    # arrangement by the region rules alone.
    spec = CrossbarSpec(n=8, n_h=1, n_l=1)
    tech = preset("16nm")
    with pytest.raises(StateForbidden):
        path_latency(0, 0, tech.state("LRS1"), CONFIG_11, spec, tech)
    with pytest.raises(StateForbidden):
        path_latency(7, 7, tech.state("HRS"), CONFIG_11, spec, tech)
    hrs_near = path_latency(0, 0, tech.state("HRS"), CONFIG_11, spec, tech)
    lrs_far = path_latency(7, 7, tech.state("LRS1"), CONFIG_11, spec, tech)
    assert hrs_near.total > 0 and lrs_far.total > 0


def test_technology_scaling_direction():
    spec = CrossbarSpec(n=64)
    for row, col in ((0, 0), (31, 17), (63, 63)):
        t45 = path_latency(row, col, preset("45nm").state("LRS2"), CONFIG_11, spec, preset("45nm"))
        t16 = path_latency(row, col, preset("16nm").state("LRS2"), CONFIG_11, spec, preset("16nm"))
        assert t16.total > t45.total


def test_tech_json_round_trip(tmp_path):
    tech = preset("32nm")
    path = tmp_path / "tech.json"
    save_tech(tech, path)
    assert load_tech(path) == tech


def test_tech_validation():
    with pytest.raises(ValidationError):
        dataclasses.replace(preset("45nm"), c_sense=0.0)
    with pytest.raises(ValidationError):
        dataclasses.replace(preset("45nm"), t_iso_on=-1.0)
    bad_order = (ResistanceState("LRS1", 5000.0), ResistanceState("LRS2", 1500.0),
                 ResistanceState("LRS3", 13600.0), ResistanceState("HRS", 73000.0))
    with pytest.raises(ValidationError):
        dataclasses.replace(preset("45nm"), states=bad_order)
    with pytest.raises(ValidationError):
        ResistanceState("HRS", -3.0)


_FLOAT_FIELDS = [f.name for f in dataclasses.fields(preset("45nm")) if f.name not in ("node_label", "states")]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_tech_values_must_be_finite(name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be "):
        dataclasses.replace(preset("45nm"), **{name: value})


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_resistance_must_be_finite(value):
    with pytest.raises(ValidationError, match="^resistance must be positive and finite"):
        ResistanceState("HRS", value)


def test_state_lookup():
    tech = preset("45nm")
    assert tech.state("LRS3").resistance == 13600.0
    with pytest.raises(ValidationError):
        tech.state("XYZ")
