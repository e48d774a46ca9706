import numpy as np
import pytest

from gch import Grid, sample


@pytest.fixture(scope="session")
def grid1024():
    return Grid(1024, 40.0)


@pytest.fixture(scope="session")
def grid4096():
    return Grid(4096, 40.0)


@pytest.fixture(scope="session")
def sech(grid1024):
    return sample(grid1024, lambda x: 1.0 / np.cosh(x))


@pytest.fixture(scope="session")
def sech2_small(grid1024):
    return sample(grid1024, lambda x: 0.05 / np.cosh(x) ** 2)


@pytest.fixture
def fft_calls(monkeypatch):
    """A list that gains one entry per ``Grid.rfft`` or ``Grid.irfft`` call."""
    calls = []
    for name in ("rfft", "irfft"):
        original = getattr(Grid, name)

        def counted(self, arr, _original=original):
            calls.append(1)
            return _original(self, arr)

        monkeypatch.setattr(Grid, name, counted)
    return calls
