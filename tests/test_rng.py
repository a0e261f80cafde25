"""Counter-based cell draws: determinism, range, rough uniformity."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from monosync.cftp import chi_square_fit
from monosync.measure import rational_measure
from monosync.rng import CellSampler


@given(st.integers(1, 64), st.integers(0, 2**64 - 1), st.integers(0, 2**16))
def test_cells_in_range_and_reproducible(L, seed, stream):
    a = CellSampler(L, seed, stream)
    b = CellSampler(L, seed, stream)
    cells = [a.cell_at(t) for t in range(1, 40)]
    assert cells == [b.cell_at(t) for t in range(1, 40)]
    # the same sampler, asked again
    assert cells == [a.cell_at(t) for t in range(1, 40)]
    assert all(0 <= c < L for c in cells)


def test_single_cell_grid_is_constant():
    s = CellSampler(1, 7, 0)
    assert {s.cell_at(t) for t in range(1, 100)} == {0}


def test_streams_and_seeds_decorrelate():
    base = [CellSampler(1000, 0, 0).cell_at(t) for t in range(1, 60)]
    assert base != [CellSampler(1000, 0, 1).cell_at(t) for t in range(1, 60)]
    assert base != [CellSampler(1000, 1, 0).cell_at(t) for t in range(1, 60)]


def test_marginal_uniformity():
    sampler = CellSampler(3, 20260818, 0)
    counts = Counter(str(sampler.cell_at(t)) for t in range(1, 6001))
    target = rational_measure(("0", "1", "2"),
                              {"0": "1/3", "1": "1/3", "2": "1/3"})
    _, p = chi_square_fit(counts, target)
    assert p > 0.001


def test_largest_grid_draws_and_larger_ones_are_refused():
    # at L = 2**64 every word is accepted; beyond it none would be, so the
    # constructor refuses rather than let cell_at loop for ever
    s = CellSampler(2**64, 5, 0)
    assert all(0 <= s.cell_at(t) < 2**64 for t in range(1, 20))
    for L in (2**64 + 1, 2**200):
        with pytest.raises(ValueError, match="exceeds"):
            CellSampler(L, 5, 0)
