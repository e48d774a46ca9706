import numpy as np
import pytest

import gch.fields as fields_mod
from gch import Grid
from gch.fields import _random_compact_field, _random_smooth_field, _sign
from gch.fields import compact_pair_family, smooth_field_family

SEEDS = [777, 20250, 4242, 0, 1, 2, 31, 55, 101, 102, 2025, 10101, 2**32 - 1]
GRID = Grid(1024, 40.0)


def _choice_sign(rng):
    """The oracle: a sign drawn by ``Generator.choice``."""
    return rng.choice([-1.0, 1.0])


def _draw(rng, count):
    """``count`` smooth fields and ``count`` compact pairs from one generator, as one block."""
    rows = [_random_smooth_field(GRID, rng).values for _ in range(count)]
    rows += [_random_compact_field(GRID, rng).values for _ in range(2 * count)]
    return np.array(rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_sign_draw_reads_the_choice_stream(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    block = _draw(rng, 5)
    after = rng.uniform()
    monkeypatch.setattr(fields_mod, "_sign", _choice_sign)
    oracle_rng = np.random.default_rng(seed)
    assert block.tobytes() == _draw(oracle_rng, 5).tobytes()
    assert repr(after) == repr(oracle_rng.uniform())
    # the public families are the oracle's, bit for bit
    smooth = [u.values for u in smooth_field_family(GRID, 4, seed)]
    pairs = [f.values for pair in compact_pair_family(GRID, 3, seed) for f in pair]
    monkeypatch.setattr(fields_mod, "_sign", _sign)
    assert np.array(smooth).tobytes() == np.array(
        [u.values for u in smooth_field_family(GRID, 4, seed)]
    ).tobytes()
    assert np.array(pairs).tobytes() == np.array(
        [f.values for pair in compact_pair_family(GRID, 3, seed) for f in pair]
    ).tobytes()


def test_a_long_run_of_signs_is_the_choice_stream():
    rng, oracle = np.random.default_rng(20250), np.random.default_rng(20250)
    signs = [_sign(rng) for _ in range(2000)]
    assert signs == [float(_choice_sign(oracle)) for _ in range(2000)]
    assert set(signs) == {-1.0, 1.0}
    assert repr(rng.uniform()) == repr(oracle.uniform())
