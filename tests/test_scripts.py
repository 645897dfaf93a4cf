"""The example scripts run and print the bytes recorded for them; both call
the involution search and the permutation formatters."""

import contextlib
import hashlib
import io
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# sha256 of stdout with the default arguments
DIGESTS = {
    "involution_survey.py": "089f0fcd79c658fe6cf667c64176df8f03f94bce802928b3cc5a49ef424edaeb",
    "quaternion_walkthrough.py": "0b0b7f85a2e8c4b8fb953332deff2b761cdfc4c11ee4cd5aae373739dbd4e108",
}


@pytest.mark.parametrize("script", sorted(DIGESTS))
def test_script_prints_recorded_output(monkeypatch, script):
    monkeypatch.setattr(sys, "argv", [script])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[script]
