"""HiGHS ILP: status cases, brute force, and captured eq. (10) instances."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement.legalization import assign_columns
from repro.errors import SolverInputError
from repro.solvers import solve_ilp

EQ10 = Path(__file__).parent / "data" / "eq10_instances.npz"


class TestSolveILP:
    def test_trivial_min(self):
        res = solve_ilp(np.array([1.0, -1.0]))
        assert res.ok
        assert list(res.x) == [0.0, 1.0]
        assert res.objective == -1.0

    def test_knapsack(self):
        # max 3a+4b+5c s.t. 2a+3b+4c <= 5 (minimized as negatives);
        # optimum is a+b (weight 5, value 7)
        c = np.array([-3.0, -4.0, -5.0])
        res = solve_ilp(c, A_ub=np.array([[2.0, 3.0, 4.0]]), b_ub=np.array([5.0]))
        assert res.ok
        assert res.objective == -7.0

    def test_equality_constraint(self):
        # pick exactly one of two, prefer cheaper
        res = solve_ilp(
            np.array([3.0, 1.0]),
            A_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([1.0]),
        )
        assert res.ok
        assert list(res.x) == [0.0, 1.0]

    def test_infeasible(self):
        res = solve_ilp(
            np.array([1.0]),
            A_eq=np.array([[1.0]]),
            b_eq=np.array([0.5]),  # x must be 0.5 but integer
        )
        assert res.status == "infeasible"

    def test_integer_ranges(self):
        # minimize -x with x integer in [0, 7]
        res = solve_ilp(np.array([-1.0]), bounds=[(0, 7)])
        assert res.ok and res.x[0] == 7.0

    def test_mixed_integrality(self):
        # y continuous: min -x - y, x+y <= 1.5, x binary
        res = solve_ilp(
            np.array([-1.0, -1.0]),
            A_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([1.5]),
            bounds=[(0, 1), (0, 1)],
            integrality=np.array([True, False]),
        )
        assert res.ok
        assert res.objective == pytest.approx(-1.5)

    def test_fractional_lp_forced_integral(self):
        # LP optimum is x=y=0.5; ILP must pick a vertex
        res = solve_ilp(
            np.array([-1.0, -1.0]),
            A_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([1.0]),
        )
        assert res.ok
        assert res.objective == pytest.approx(-1.0)
        assert set(np.round(res.x)) <= {0.0, 1.0}

    def test_unbounded_rejected(self):
        with pytest.raises(SolverInputError, match="unbounded"):
            solve_ilp(np.array([-1.0]), bounds=[(0, np.inf)])

    def test_node_limit_keeps_incumbent(self):
        # a 40-item, 5-constraint knapsack HiGHS closes in about a dozen nodes
        rng = np.random.default_rng(0)
        w = rng.integers(10, 100, (5, 40)).astype(float)
        v = rng.integers(10, 100, 40).astype(float)
        cap = w.sum(axis=1) / 2
        res = solve_ilp(-v, A_ub=w, b_ub=cap, max_nodes=1)
        assert res.status == "node_limit" and not res.ok
        assert res.x is not None and np.all(w @ res.x <= cap) and res.gap > 0
        assert solve_ilp(-v, A_ub=w, b_ub=cap).objective <= res.objective


def _grid_floats(lo, hi):
    """Finite floats snapped to a 1e-3 grid.

    Raw floats let hypothesis build ill-conditioned instances (e.g. a
    constraint ``1e-6·x ≤ 0``) whose feasibility is tolerance-dependent:
    the exact optimum and HiGHS's tolerance-feasible optimum legitimately
    differ, so solver-agreement properties flake. On a 1e-3 grid every
    constraint is either satisfied exactly (float noise ≲1e-12) or
    violated by ≳1e-3 — unambiguous under every solver's tolerance.
    """
    return st.floats(lo, hi, allow_nan=False).map(lambda v: round(v, 3))


def _brute_binary(c, A_ub, b_ub):
    best = None
    n = len(c)
    for bits in itertools.product((0.0, 1.0), repeat=n):
        x = np.array(bits)
        if A_ub is not None and np.any(A_ub @ x > b_ub + 1e-9):
            continue
        v = float(c @ x)
        if best is None or v < best:
            best = v
    return best


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ilp_matches_brute_force(data):
    n = data.draw(st.integers(2, 6))
    m = data.draw(st.integers(1, 3))
    c = np.array(data.draw(st.lists(_grid_floats(-5, 5), min_size=n, max_size=n)))
    a = np.array(
        data.draw(
            st.lists(
                st.lists(_grid_floats(-3, 3), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )
    b = np.array(data.draw(st.lists(_grid_floats(-1, 6), min_size=m, max_size=m)))
    res = solve_ilp(c, A_ub=a, b_ub=b)
    ref = _brute_binary(c, a, b)
    if ref is None:
        assert res.status == "infeasible"
    else:
        assert res.ok
        assert res.objective == pytest.approx(ref, abs=1e-6)


def _eq10_instances():
    data = np.load(EQ10)
    for name in data["names"]:
        fields = ("entity_x", "sizes", "col_x", "caps", "objective")
        yield pytest.param(*(data[f"{name}.{f}"] for f in fields), id=str(name))


@pytest.mark.parametrize("entity_x, sizes, col_x, caps, objective", list(_eq10_instances()))
def test_eq10_captured_instances(entity_x, sizes, col_x, caps, objective):
    """Inputs of the inter-column legalizations of ``DSPlacer(zcu104()).place``
    on ``generate_suite(suite, scale, seed)`` (the id names them).

    ``objective`` is the optimum the former branch-and-bound solver proved
    (in ``<id>.bnb_nodes`` nodes). On skrskr3@0.6 seed 1 it found no
    integral solution in 3 000 nodes (``bnb_nodes`` -1); that optimum is
    HiGHS's.
    """
    col_of, used_ilp, ilp = assign_columns(entity_x, sizes, col_x, caps)
    assert used_ilp and ilp.status == "optimal"
    assert ilp.objective == pytest.approx(float(objective), rel=1e-6, abs=1e-6)
    assert np.all(np.bincount(col_of, weights=sizes, minlength=len(caps)) <= caps)
    disp = np.abs(entity_x - col_x[col_of]) * sizes
    assert disp.sum() == pytest.approx(float(objective), rel=1e-6, abs=1e-6)
