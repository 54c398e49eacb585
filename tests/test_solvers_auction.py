"""Auction assignment: ε-optimality vs scipy's ``linear_sum_assignment``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from repro.solvers.auction import auction_assignment


def _lsa_optimum(cost):
    """Optimal assignment cost by scipy's ``linear_sum_assignment``."""
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


class TestAuctionBasics:
    def test_identity(self):
        cost = np.array([[1.0, 9.0], [9.0, 1.0]])
        cols, total = auction_assignment(cost)
        assert list(cols) == [0, 1]
        assert total == 2.0

    def test_rectangular(self):
        cost = np.array([[5.0, 1.0, 3.0]])
        cols, total = auction_assignment(cost)
        assert cols[0] == 1 and total == 1.0

    def test_single_column(self):
        cols, total = auction_assignment(np.array([[7.0]]))
        assert cols[0] == 0 and total == 7.0

    def test_all_equal_costs(self):
        cols, total = auction_assignment(np.full((3, 4), 2.0))
        assert len(set(cols.tolist())) == 3
        assert total == 6.0

    def test_too_many_rows(self):
        with pytest.raises(ValueError):
            auction_assignment(np.zeros((3, 2)))

    def test_empty(self):
        cols, total = auction_assignment(np.zeros((0, 4)))
        assert cols.size == 0 and total == 0.0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_auction_exact_on_integer_costs(data):
    """Integer costs + default ε schedule ⇒ exact optimum."""
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(n, 7))
    cost = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(-20, 20), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.float64,
    )
    spread = cost.max() - cost.min()
    eps_min = 0.9 / (n + 1) if spread > 0 else None
    cols, total = auction_assignment(cost, eps_min=eps_min)
    assert len(set(cols.tolist())) == n
    ref = _lsa_optimum(cost)
    assert total == pytest.approx(ref, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_auction_eps_bound_on_float_costs(seed):
    """Float costs: cost within the documented n·ε bound of optimal."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 8)), int(rng.integers(8, 12))
    cost = rng.uniform(-10, 10, (n, m))
    eps_min = 0.01
    cols, total = auction_assignment(cost, eps_min=eps_min)
    ref = _lsa_optimum(cost)
    assert total <= ref + n * eps_min + 1e-9
    assert len(set(cols.tolist())) == n


def test_auction_mid_size_near_optimal():
    rng = np.random.default_rng(1)
    cost = rng.uniform(0, 100, (120, 160))
    cols, total = auction_assignment(cost, eps_min=1e-3)
    ref = _lsa_optimum(cost)
    assert total <= ref + 120 * 1e-3 + 1e-6
