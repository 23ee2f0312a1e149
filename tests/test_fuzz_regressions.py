"""Replay every shrunk fuzz reproducer in ``tests/fuzz_regressions/``.

Each find of a fuzz campaign is persisted as a ``.scenic`` + ``.json`` pair
(see ``repro.fuzz.runner.persist_finds`` and the directory's README); this
module turns the whole directory into permanent regression tests:

* ``valid``-mode reproducers must pass the full differential oracle set;
* ``invalid``/``mutation``-mode reproducers must compile cleanly or raise a
  proper :class:`~repro.core.errors.ScenicError` — never a raw Python
  exception; ``mutation``-mode ones must also pass the oracles run the way
  the campaign runs them on a mutant (``expect_valid=False``).
"""

import json
from pathlib import Path

import pytest

from repro.core.errors import ScenicError
from repro.fuzz import check_invalid_program, run_oracles
from repro.language import scenario_from_string

REGRESSION_DIR = Path(__file__).resolve().parent / "fuzz_regressions"


def regression_cases():
    cases = []
    for scenic_path in sorted(REGRESSION_DIR.glob("*.scenic")):
        meta_path = scenic_path.with_suffix(".json")
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        cases.append(pytest.param(scenic_path, meta, id=scenic_path.stem))
    return cases


def test_corpus_is_non_empty_and_documented():
    assert (REGRESSION_DIR / "README.md").exists()
    assert len(list(REGRESSION_DIR.glob("*.scenic"))) >= 5


@pytest.mark.parametrize("scenic_path,meta", regression_cases())
def test_reproducer_stays_fixed(scenic_path, meta):
    source = scenic_path.read_text()
    mode = meta.get("mode", "invalid")
    if mode == "valid":
        report = run_oracles(
            source, seed=int(meta.get("seed", 0)), max_iterations=400, expect_valid=True
        )
        assert report.verdict != "fail", [str(f) for f in report.failures]
    else:
        assert check_invalid_program(source) is None
        if mode == "mutation":
            report = run_oracles(
                source, seed=int(meta["seed"]), max_iterations=80, expect_valid=False
            )
            assert report.verdict != "fail", [str(f) for f in report.failures]


@pytest.mark.parametrize("scenic_path,meta", regression_cases())
def test_error_reproducers_raise_with_source_location(scenic_path, meta):
    """Invalid-mode reproducers must produce *informative* ScenicErrors."""
    if meta.get("mode", "invalid") == "valid":
        pytest.skip("valid-mode reproducer")
    source = scenic_path.read_text()
    try:
        scenario_from_string(source)
    except ScenicError as error:
        message = str(error)
        assert message, "error message must not be empty"
        # Every hardened error path reports the offending line.
        assert "line" in message or getattr(error, "line", None) is not None
    else:
        pytest.skip("reproducer now compiles cleanly")
