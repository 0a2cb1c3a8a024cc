"""Shared fixtures and helpers for the test suite.

The named scenario presets double as well-understood parameter sets, so
most tests pull them from ``twostrain.figures`` instead of retyping
constants. Random parameter draws share one box: every rate uniform in
[0.05, 2], with the four strictly positive rates (s, r, L, K) redrawn
from [0.1, 2] so no draw sits near a validation boundary.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from twostrain import equilibria, stability
from twostrain.figures import PRESETS, reproduce
from twostrain.model import ModelParameters, PARAMETER_KEYS


def draw_parameter_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 14) random valid parameter rows in PARAMETER_KEYS order."""
    matrix = rng.uniform(0.05, 2.0, size=(n, len(PARAMETER_KEYS)))
    for key in ("s", "r", "L", "K"):
        matrix[:, PARAMETER_KEYS.index(key)] = rng.uniform(0.1, 2.0, size=n)
    return matrix


def params_from_row(row: np.ndarray) -> ModelParameters:
    return ModelParameters.from_dict(dict(zip(PARAMETER_KEYS, row)))


@pytest.fixture(scope="session")
def fig1_params() -> ModelParameters:
    return PRESETS["fig1"].params


@pytest.fixture(scope="session")
def fig4_params() -> ModelParameters:
    return PRESETS["fig4"].params


@pytest.fixture(scope="session")
def fig5_params() -> ModelParameters:
    return PRESETS["fig5"].params


def _replace_everywhere(monkeypatch, original, replacement) -> None:
    """Replace a function in every twostrain namespace that refers to it."""
    for name, module in list(sys.modules.items()):
        if name == "twostrain" or name.startswith("twostrain."):
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def threshold_calls(monkeypatch) -> list:
    """Record every ``thresholds`` call, whichever module makes it.

    The function is replaced in every twostrain namespace that refers to
    it, so calls through a module attribute are counted.
    """
    calls = []
    original = equilibria.thresholds

    def counted(params):
        calls.append(params)
        return original(params)

    _replace_everywhere(monkeypatch, original, counted)
    return calls


@pytest.fixture
def point_computations(monkeypatch) -> Counter:
    """Count every closed-form equilibrium point computed, by full id.

    Every record, a face id's included, is finished once by
    ``equilibria._finish`` under its full id.
    """
    counts = Counter()
    original = equilibria._finish

    def counted(eq_id, *args, **kwargs):
        counts[eq_id] += 1
        return original(eq_id, *args, **kwargs)

    monkeypatch.setattr(equilibria, "_finish", counted)
    return counts


@pytest.fixture
def classify_forbidden(monkeypatch) -> None:
    """Make every call of the full ``stability.classify`` verdict fail.

    For work that should read only the spectrum it needs. The failure is
    an AssertionError, which no twostrain caller or CLI handler catches.
    """

    def forbidden(params, eq_id):
        raise AssertionError(f"stability.classify reached for {eq_id}")

    _replace_everywhere(monkeypatch, stability.classify, forbidden)


@pytest.fixture(scope="session")
def fig4_pipeline(tmp_path_factory):
    """One full basin/separatrix reproduction, shared by every consumer.

    The run takes about half a minute, so the summary dict and output
    directory are computed once per session.
    """
    outdir = tmp_path_factory.mktemp("fig4_pipeline")
    summary = reproduce("fig4", outdir)
    return summary, outdir


# ----------------------------------------------------------------------
# Acceptance-criterion reporting: every acceptance test records one
# PASS/FAIL line; the collected block is echoed in the terminal summary
# so the verdicts are visible even for passing tests.
# ----------------------------------------------------------------------

CRITERION_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> str:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    CRITERION_LINES.append(line)
    print(line)
    return line


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES):
        terminalreporter.write_line(line)
