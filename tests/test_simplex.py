import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from satmargin.cnf import CNF, parse_dimacs, brute_force_models
from satmargin.reduction import (
    BoundedInequality, InequalitySystem, cnf_to_system, satisfies,
)
from satmargin.simplex import ExactSimplex

from conftest import EQ1_DIMACS, random_system, random_horn_cnf


def eq3_system():
    return cnf_to_system(parse_dimacs(EQ1_DIMACS))


def fresh_interval(system, var):
    """(min, max) of one variable, each on its own fresh tableau; None when
    the system is infeasible."""
    lo = ExactSimplex(system).minimize({var: Fraction(1)})
    hi = ExactSimplex(system).maximize({var: Fraction(1)})
    return None if lo is None else (lo, hi)


# ---------------------------------------------------------------------------
# independent oracle: enumerate all vertices as intersections of n facets
# ---------------------------------------------------------------------------

def _solve_square(rows, rhs):
    """Exact Gaussian elimination; None when singular."""
    n = len(rows)
    m = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def enumerate_vertices(system: InequalitySystem):
    """All basic feasible points of a boxed system (brute force)."""
    n = system.num_vars
    facets = []
    for row in system.rows:
        vec = [row.coeffs.get(v, 0) for v in range(1, n + 1)]
        facets.append((vec, row.lower))
        facets.append((vec, row.upper))
    for v in range(n):
        unit = [0] * n
        unit[v] = 1
        facets.append((unit, Fraction(0)))
        facets.append((unit, Fraction(1)))
    vertices = set()
    for combo in itertools.combinations(facets, n):
        point = _solve_square([f[0] for f in combo], [f[1] for f in combo])
        if point is not None and satisfies(system, tuple(point)):
            vertices.add(tuple(point))
    return vertices


def oracle_minimum(system, objective):
    verts = enumerate_vertices(system)
    if not verts:
        return None
    return min(sum(objective.get(v, Fraction(0)) * pt[v - 1]
                   for v in range(1, system.num_vars + 1)) for pt in verts)


class TestExamples:
    def test_min_x1_is_one_third(self):
        tab = ExactSimplex(eq3_system())
        assert tab.minimize({1: Fraction(1)}) == Fraction(1, 3)
        # the hand-derived witness is feasible and attains the optimum
        hand = (Fraction(1, 3), Fraction(2, 3), Fraction(1, 3), Fraction(2, 3))
        assert satisfies(eq3_system(), hand)
        assert tab.witness()[0] == Fraction(1, 3)
        # independent vertex-enumeration oracle
        assert oracle_minimum(eq3_system(), {1: Fraction(1)}) == Fraction(1, 3)

    def test_max_x1_is_one(self):
        assert ExactSimplex(eq3_system()).maximize({1: Fraction(1)}) == 1

    def test_infeasible(self):
        sys_ = InequalitySystem(1, [
            BoundedInequality({1: 1}, Fraction(1), Fraction(1)),
            BoundedInequality({1: -1}, Fraction(0), Fraction(0)),
        ])
        tab = ExactSimplex(sys_)
        assert not tab.feasible()
        assert tab.minimize({1: Fraction(1)}) is None
        assert tab.maximize({1: Fraction(1)}) is None

    def test_witness_satisfies_exactly(self):
        tab = ExactSimplex(eq3_system())
        tab.minimize({1: Fraction(1)})
        assert satisfies(eq3_system(), tab.witness())

    def test_unboxed_rejected(self):
        # every LP here is over the 0/1 box, which is what keeps it bounded
        sys_ = InequalitySystem(
            1, [BoundedInequality({1: 1}, Fraction(0), Fraction(10 ** 9))],
            box=False)
        with pytest.raises(ValueError, match="boxed"):
            ExactSimplex(sys_)


class TestVariableInterval:
    def test_eq3_x1(self):
        assert fresh_interval(eq3_system(), 1) == (Fraction(1, 3), Fraction(1))
        assert ExactSimplex(eq3_system()).intervals()[1] == \
            (Fraction(1, 3), Fraction(1))

    def test_unit_clause(self):
        sys_ = cnf_to_system(CNF.from_ints(1, ors=[[1]]))
        assert ExactSimplex(sys_).intervals() == {1: (1, 1)}

    def test_empty_system(self):
        assert ExactSimplex(InequalitySystem(1, [])).intervals() == {1: (0, 1)}

    def test_zero_variables(self):
        # a DIMACS "p cnf 0 0" reaches the simplex as this system
        tab = ExactSimplex(InequalitySystem(0, []))
        assert tab.feasible()
        assert tab.minimize({}) == 0
        assert tab.intervals() == {}

    def test_infeasible_returns_none(self):
        sys_ = InequalitySystem(1, [
            BoundedInequality({1: 1}, Fraction(1), Fraction(1)),
            BoundedInequality({1: -1}, Fraction(0), Fraction(0)),
        ])
        assert ExactSimplex(sys_).intervals() is None
        assert fresh_interval(sys_, 1) is None

    def test_batch_matches_single(self):
        rng = random.Random(40)
        for _ in range(10):
            sys_ = random_system(rng, rng.randint(2, 5), rng.randint(1, 6))
            batch = ExactSimplex(sys_).intervals()
            for v in range(1, sys_.num_vars + 1):
                assert (batch is None and fresh_interval(sys_, v) is None) or \
                    batch[v] == fresh_interval(sys_, v)


class TestOracleAgreement:
    def test_vertex_enumeration_spot_check(self):
        rng = random.Random(41)
        done = 0
        while done < 12:
            n = rng.randint(2, 4)
            sys_ = random_system(rng, n, rng.randint(1, 6))
            obj = {v: Fraction(rng.randint(-3, 3)) for v in range(1, n + 1)}
            tab = ExactSimplex(sys_)
            assert tab.minimize(obj) == oracle_minimum(sys_, obj)
            assert not tab.feasible() or satisfies(sys_, tab.witness())
            done += 1

    def test_vertex_enumeration_n5(self):
        rng = random.Random(42)
        for _ in range(2):
            sys_ = random_system(rng, 5, 6)
            obj = {v: Fraction(rng.randint(-2, 2)) for v in range(1, 6)}
            assert ExactSimplex(sys_).minimize(obj) == oracle_minimum(sys_, obj)


class TestInvariants:
    def test_interval_sandwich(self):
        rng = random.Random(43)
        done = 0
        while done < 25:
            from conftest import random_cnf
            cnf = random_cnf(rng, rng.randint(1, 7), rng.randint(1, 10))
            models = brute_force_models(cnf)
            if not models:
                continue
            done += 1
            sys_ = cnf_to_system(cnf)
            ivals = ExactSimplex(sys_).intervals()
            for v in range(1, cnf.num_vars + 1):
                lo, hi = ivals[v]
                for m in models:
                    assert lo <= m[v - 1] <= hi

    def test_determinism(self):
        sys_ = eq3_system()
        results = []
        for _ in range(3):
            tab = ExactSimplex(sys_)
            results.append((tab.minimize({1: Fraction(1)}), tab.witness()))
        assert all(r == results[0] for r in results)

    def test_boxed_never_unbounded(self):
        rng = random.Random(44)
        for _ in range(20):
            sys_ = random_system(rng, rng.randint(1, 5), rng.randint(1, 6))
            tab = ExactSimplex(sys_)
            value = tab.minimize({1: Fraction(rng.choice([-1, 1]))})
            # None exactly when infeasible; a ray would raise RuntimeError
            assert (value is None) == (not tab.feasible())

    def test_arbitrary_precision_coefficients(self):
        # coefficients beyond the int64 fast path stay exact
        big = 7 ** 30
        sys_ = InequalitySystem(1, [
            BoundedInequality({1: big}, Fraction(1), Fraction(big))])
        assert fresh_interval(sys_, 1) == (Fraction(1, big), Fraction(1))
        assert ExactSimplex(sys_).intervals() == {1: (Fraction(1, big), 1)}
        tiny = InequalitySystem(1, [
            BoundedInequality({1: 1}, Fraction(1, big), Fraction(2, 3))])
        assert fresh_interval(tiny, 1) == (Fraction(1, big), Fraction(2, 3))
        # an objective coefficient beyond int64 promotes an int64 tableau
        assert ExactSimplex(eq3_system()).minimize({1: big ** 2}) \
            == Fraction(big ** 2, 3)

    def test_objective_row_overflow_promotes(self):
        # phase 1 leaves an entry of about 2**57 in an int64 tableau; the
        # new objective row's dot product could pass 2**63, so it promotes
        sys_ = InequalitySystem(2, [
            BoundedInequality({1: -345831701, 2: 325370344},
                              Fraction(162736977), Fraction(540517108)),
            BoundedInequality({1: -443718039},
                              Fraction(-117012821), Fraction(121458559))])
        tab = ExactSimplex(sys_)
        assert tab.feasible() and tab.T.dtype == np.int64
        assert int(np.abs(tab.T[:tab.m]).max()) == 144372690988435416
        assert tab.minimize({1: 2 ** 29 - 1, 2: 2 ** 29 - 1}) \
            == Fraction(6720673007336619, 25028488)
        assert tab.T.dtype == object

    def test_bland_tie_break(self):
        # rows 0 and 2 tie in the ratio test for column 11; Bland's rule
        # takes the one with the smaller basic variable (1, not 4)
        sys_ = InequalitySystem(4, [
            BoundedInequality({1: -1, 2: 2, 3: -1, 4: -1},
                              Fraction(-1), Fraction(2)),
            BoundedInequality({2: 2, 3: 2}, Fraction(1), Fraction(2))])
        tab = ExactSimplex(sys_)
        assert tab.minimize({1: -1, 2: 1, 3: 2}) == Fraction(-1, 2)
        T, rhs = tab.T, tab.ncols
        assert [(i, Fraction(int(T[i, rhs]), int(T[i, 11])), tab.basis[i])
                for i in range(tab.m) if T[i, 11] > 0] == \
            [(0, 1, 4), (2, 1, 1)]
        assert tab._ratio_leave(11) == 2

    def test_degenerate_pivoting_terminates(self):
        rows = [BoundedInequality({1: 1, 2: 1, 3: 1}, Fraction(0), Fraction(1)),
                BoundedInequality({1: 1, 2: -1}, Fraction(0), Fraction(0)),
                BoundedInequality({2: 1, 3: -1}, Fraction(0), Fraction(0)),
                BoundedInequality({1: -1, 3: 1}, Fraction(0), Fraction(0))]
        obj = {1: Fraction(1), 2: Fraction(1), 3: Fraction(1)}
        assert ExactSimplex(InequalitySystem(3, rows)).maximize(obj) == 1

    def test_horn_lp_feasible_when_sat(self):
        rng = random.Random(45)
        for _ in range(20):
            cnf = random_horn_cnf(rng, rng.randint(1, 10), rng.randint(1, 15))
            sys_ = cnf_to_system(cnf)
            tab = ExactSimplex(sys_)
            if brute_force_models(cnf):
                assert tab.feasible()

    def test_nonpositive_pivot_raises(self):
        # an explicit check, so it survives python -O unlike an assert
        tab = ExactSimplex(eq3_system())
        r, c = next((r, c) for r in range(tab.m) for c in range(tab.ncols)
                    if tab.T[r, c] <= 0)
        with pytest.raises(RuntimeError, match="pivot"):
            tab._pivot(r, c)

    def test_improving_ray_raises(self):
        # a boxed tableau has no unbounded column; finding one is a bug
        tab = ExactSimplex(eq3_system())
        c = next(c for c in range(tab.ncols)
                 if (tab.T[:tab.m, c] <= 0).all())
        with pytest.raises(RuntimeError, match="ray"):
            tab._ratio_leave(c)
