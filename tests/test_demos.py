"""The six demos print exactly what they printed when these digests were taken.

A change that alters a demo's output on purpose (a defect fix) updates the
digest here and records the change and its reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_DIGESTS = {
    "01_cost_per_bit.py": "6b977f3c5da1eb04fd0cd00c9b478b5ec3917561ba099aadc9232ca781ed7e8f",
    "02_latency_balancing.py": "75ae72b8320a9e63940ead4f8f99540cd51ad0318309cb45bd190d9df3e08be4",
    "03_partitioned_configs.py": "9e84f8e27dc31c34cec0320d353ded95f57b2a2cd8d0c48c80509e7d36705fd5",
    "04_mapping_and_energy.py": "0f85f8f9e2b0feda16034cb355b84e247ebe6aa5ef549784561f04693bcc772a",
    "05_isi_distortion.py": "34ca4f008bc48821e9ec82bfc65cb6e1fe9d2af420593d9cf13dc71fd93debc0",
    "06_pq_tradeoff.py": "9a3bffa78a26f1f8a32f529118afade95906e7b44b6c23562a6b25d94c295420",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_DIGESTS)


@pytest.mark.parametrize("demo", STDOUT_DIGESTS)
def test_demo_stdout_matches_digest(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_DIGESTS[demo]
