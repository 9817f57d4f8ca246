"""Shared fixtures and the acceptance-report terminal summary."""

import shutil

import numpy as np
import pytest

from harvest import _kernels, averaging
from harvest.model import ExcitationParams, NoiseParams, SystemParams

# One line per acceptance criterion, printed at the end of the session so the
# pass/fail verdicts are always visible in the terminal output.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def cold_analytic_caches():
    """Every test starts with an empty energy-node memo, so a test that counts
    builds or memo hits does not depend on the tests before it."""
    averaging._energy_nodes.cache_clear()


@pytest.fixture(autouse=True, scope="session")
def private_build_cache(tmp_path_factory):
    """The compiled step loop is built into a cache of this session, not the
    user's: every session builds it once, and no test writes to $HOME."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        _kernels._library.cache_clear()
        yield
    _kernels._library.cache_clear()


def compiler_found() -> bool:
    """Whether sysconfig names a C compiler that is on PATH."""
    cc = _kernels._compiler()
    return cc is not None and shutil.which(cc[0]) is not None


@pytest.fixture(scope="session")
def baseline_system() -> SystemParams:
    """Uncontrolled baseline oscillator/circuit constants."""
    return SystemParams(
        delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02
    )


@pytest.fixture(scope="session")
def controlled_system() -> SystemParams:
    """Baseline plus the reference feedback setting used for resonance scans."""
    return SystemParams(
        delta1=3.0, delta3=3.0, kappa=0.3, alpha=0.05, beta=0.02,
        mu=-0.005, nu=0.005, tau1=0.6, tau2=2.5,
    )


@pytest.fixture(scope="session")
def baseline_noise() -> NoiseParams:
    return NoiseParams(D=0.005, c=0.3)


@pytest.fixture(scope="session")
def baseline_excitation() -> ExcitationParams:
    return ExcitationParams(eps=0.1, G=0.1, Omega=0.05)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)
