"""The program's PCG64 stream against numpy's default_rng, bit for bit.

numpy.random is the oracle here only: the package itself never imports it
(test_cli.py::test_sampling_commands_import_no_numpy_random).
"""

import numpy as np
import pytest

from denjoy_twist.draws import default_rng

SEEDS = [0, 1, 20260809, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7]
SIZES = [0, 1, 2, 3, 2**14 + 1]


def same(ours, theirs, dtype):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.dtype == theirs.dtype == dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


def both(seed):
    return default_rng(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_arrays_bitwise(seed):
    ours, theirs = both(seed)
    for n in SIZES:
        same(ours.random(n), theirs.random(n), np.float64)
        same(ours.random((n, 2)), theirs.random((n, 2)), np.float64)
        same(ours.integers(-500, 501, size=n), theirs.integers(-500, 501, size=n),
             np.int64)
        # a range that redraws a quarter of its words
        same(ours.integers(0, 3 * 2**30 - 1, size=n),
             theirs.integers(0, 3 * 2**30 - 1, size=n), np.int64)
        assert ours.random() == theirs.random()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [28, 500, 2**16 + 4])
def test_sample_points_sequence_bitwise(seed, n):
    # n // 4 odd: the second integers call starts on the buffered upper word,
    # and the next call after it on whatever half is left
    def calls(rng):
        return [rng.random(n // 2), rng.integers(-500, 501, size=n // 4),
                rng.random(n // 4), rng.integers(-500, 501, size=n - n // 2 - n // 4),
                rng.integers(-7, 8, size=3), rng.integers(-7, 8, size=0),
                np.int64(rng.integers(-2048, 2048))]

    for a, b in zip(*map(calls, both(seed)), strict=True):
        same(a, b, b.dtype)


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_loops_bitwise(seed):
    # det_check's branch on a draw, and vertical_translation_check's pairs
    def loop(rng):
        out = []
        for _ in range(300):
            k = int(rng.integers(-400, 400))
            s = rng.uniform(0.1, 0.4) if rng.random() < 0.5 else rng.uniform(0.6, 0.9)
            out += [k, s, rng.uniform(-0.5, 0.5), rng.random(),
                    rng.integers(-2048, 2048) / 1024.0, int(rng.integers(3, 4))]
        return out, rng.random(5)

    (ours, tail), (theirs, their_tail) = map(loop, both(seed))
    assert [float(x).hex() for x in ours] == [float(x).hex() for x in theirs]
    same(tail, their_tail, np.float64)


def test_pinned_values():
    # recorded from numpy 2.4.6's default_rng
    rng = default_rng(0)
    assert rng.random().hex() == "0x1.461fd79fb3850p-1"
    assert rng.integers(-400, 400) == 8
    assert rng.random(3).tolist() == [0.04097352393619469, 0.016527635528529094,
                                      0.8132702392002724]
    assert rng.integers(-500, 501, size=5).tolist() == [-230, 150, 413, 4, 107]
    rng = default_rng(2**130 + 7)
    assert rng.random().hex() == "0x1.b75538fb9a4c5p-1"
    assert rng.random((2, 2)).tolist() == [[0.5722630219784526, 0.5157610586980894],
                                           [0.8271273440755569, 0.7696728588720865]]


def test_unreproduced_requests_raise():
    rng = default_rng(1)
    for low, high in ((0, 2**32), (-2**31, 2**31), (5, 5), (6, 5)):
        with pytest.raises(ValueError):
            rng.integers(low, high)
    with pytest.raises(ValueError):
        default_rng(-1)
