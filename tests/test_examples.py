"""The UDF examples run end to end, in process.

They are the row adapter's users outside the tests
(:class:`repro.core.scheduler.RowUdf`): ``custom_pattern.py`` samples
matches, ``local_clustering.py`` counts triangles per vertex (and
asserts every triangle reached it three times), ``fsm_labeled.py``
mines frequent labeled patterns through the MNI collector and
cross-checks them against the Fractal baseline.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize("name", [
    "custom_pattern.py", "local_clustering.py", "fsm_labeled.py"])
def test_example_runs(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
