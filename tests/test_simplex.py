import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from satmargin.cnf import (CNF, parse_dimacs, brute_force_models,
                           solve_horn_unit_prop)
from satmargin.reduction import (
    BoundedInequality, InequalitySystem, cnf_to_system, satisfies,
)
from satmargin.simplex import ExactSimplex

from conftest import EQ1_DIMACS, random_cnf, random_horn_cnf, random_system


def eq3_system():
    return cnf_to_system(parse_dimacs(EQ1_DIMACS))


def dense(tab):
    """The Bareiss tableau over the common denominator D: row i's stored
    entries are over d[i], so its dense entries are T[i][j] * D // d[i]."""
    return [[row.get(j, 0) * tab.D // tab.d[i] for j in range(tab.ncols + 1)]
            for i, row in enumerate(tab.T)]


def fresh_interval(system, var):
    """(min, max) of one variable, each on its own fresh tableau; None when
    the system is infeasible."""
    lo = ExactSimplex(system).minimize({var: Fraction(1)})
    hi = ExactSimplex(system).maximize({var: Fraction(1)})
    return None if lo is None else (lo, hi)


# ---------------------------------------------------------------------------
# independent oracle: enumerate all vertices as intersections of n facets
# ---------------------------------------------------------------------------

def _inverse(rows):
    """Exact inverse of a square matrix by Gauss-Jordan; None when singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
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
    return [row[n:] for row in m]


def enumerate_vertices(system: InequalitySystem):
    """All basic feasible points of a boxed system (brute force): each set of
    n distinct facet vectors is inverted once, then solved at every choice
    of right-hand sides.  Two facets on one vector would be singular."""
    n = system.num_vars
    facets: dict[tuple, set] = {}  # row or unit vector -> its right-hand sides
    for row in system.rows:
        vec = tuple(row.coeffs.get(v, 0) for v in range(1, n + 1))
        facets.setdefault(vec, set()).update((row.lower, row.upper))
    for v in range(n):
        unit = tuple(int(k == v) for k in range(n))
        facets.setdefault(unit, set()).update((Fraction(0), Fraction(1)))
    points = set()
    for vecs in itertools.combinations(facets, n):
        inv = _inverse(vecs)
        if inv is not None:
            for rhs in itertools.product(*(facets[vec] for vec in vecs)):
                points.add(tuple(sum(a * b for a, b in zip(row, rhs))
                                 for row in inv))
    return {pt for pt in points if satisfies(system, pt)}


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
        # every LP here is over the 0/1 box, which is what keeps it bounded;
        # an unboxed system is refused before a tableau is built
        with pytest.raises(ValueError, match="0/1 box"):
            ExactSimplex(InequalitySystem(
                1, [BoundedInequality({1: 1}, Fraction(0), Fraction(10 ** 9))],
                box=False))


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
        cases = []
        for _ in range(2):  # random systems; these two are infeasible
            sys_ = random_system(rng, 5, 6)
            cases.append((sys_, {v: Fraction(rng.randint(-2, 2))
                                 for v in range(1, 6)}))
        while len(cases) < 4:  # satisfiable CNFs, so real optima compare
            cnf = random_cnf(rng, 5, 6)
            if brute_force_models(cnf):
                cases.append((cnf_to_system(cnf), {v: Fraction(rng.randint(-2, 2))
                                                   for v in range(1, 6)}))
        optima = []
        for sys_, obj in cases:
            optima.append(oracle_minimum(sys_, obj))
            assert ExactSimplex(sys_).minimize(obj) == optima[-1]
        assert [opt is None for opt in optima] == [True, True, False, False]


class TestInvariants:
    def test_interval_sandwich(self):
        rng = random.Random(43)
        done = 0
        while done < 25:
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
        # an objective coefficient beyond int64 stays exact too
        assert ExactSimplex(eq3_system()).minimize({1: big ** 2}) \
            == Fraction(big ** 2, 3)

    def test_objective_row_with_big_entries_is_exact(self):
        # the feasibility pass leaves an entry of about 2**57; the objective
        # row's sums pass 2**63, and python ints keep every one exact
        sys_ = InequalitySystem(2, [
            BoundedInequality({1: -345831701, 2: 325370344},
                              Fraction(162736977), Fraction(540517108)),
            BoundedInequality({1: -443718039},
                              Fraction(-117012821), Fraction(121458559))])
        tab = ExactSimplex(sys_)
        assert tab.feasible()
        assert max(abs(x) for row in dense(tab)[:tab.m] for x in row) \
            == 144372690988435416
        obj = {1: 2 ** 29 - 1, 2: 2 ** 29 - 1}
        optimum = Fraction(6720673007336619, 25028488)
        assert tab.minimize(obj) == optimum == oracle_minimum(sys_, obj)
        assert satisfies(sys_, tab.witness())
        # nothing is promoted: every entry is a plain python int
        assert tab.T.dtype is int
        assert all(type(x) is int for row in tab.T for x in row.values())

    def test_bland_tie_break(self):
        # after min 2*x1 - x2, rows 0 and 1 tie in the ratio test for
        # column 3; Bland's rule takes the one with the smaller basic
        # variable (1, not 2), though it is the later row
        sys_ = InequalitySystem(2, [
            BoundedInequality({1: -1, 2: 1}, Fraction(0), Fraction(5, 2)),
            BoundedInequality({1: 3, 2: -2}, Fraction(-1, 2), Fraction(9, 2))])
        tab = ExactSimplex(sys_)
        assert tab.minimize({1: 2, 2: -1}) == Fraction(-1, 4)
        T, rhs = dense(tab), tab.ncols
        assert [(i, Fraction(T[i][rhs], T[i][3]), tab.basis[i])
                for i in range(tab.m) if T[i][3] > 0] == [(0, 1, 2), (1, 1, 1)]
        assert tab._ratio_leave(3) == 1

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
        T = dense(tab)
        r, c = next((r, c) for r in range(tab.m) for c in range(tab.ncols)
                    if T[r][c] <= 0)
        with pytest.raises(RuntimeError, match="pivot"):
            tab._pivot(r, c)

    def test_pivot_that_keeps_its_column_priced_raises(self, monkeypatch):
        # a column index that misses the objective row leaves the entering
        # column priced, and Bland's rule would enter it forever; a pivot
        # that changes nothing stands in for it
        tab = ExactSimplex(eq3_system())
        assert tab.feasible()
        monkeypatch.setattr(ExactSimplex, "_pivot", lambda tab, r, c: None)
        with pytest.raises(RuntimeError, match="invariant broken"):
            tab.minimize({1: Fraction(1)})

    def test_wrong_leaving_row_raises(self, monkeypatch):
        # leaving on the largest ratio instead of the least drives another
        # rewritten row's right-hand side negative
        tab = ExactSimplex(eq3_system())
        assert tab.feasible()

        def largest_ratio(tab, e):
            rows = [i for i in tab._cols[e] if i < tab.m and tab.T[i][e] > 0]
            return max(rows, key=lambda i: Fraction(tab.T[i].get(tab.ncols, 0),
                                                    tab.T[i][e]))

        monkeypatch.setattr(ExactSimplex, "_ratio_leave", largest_ratio)
        with pytest.raises(RuntimeError, match="invariant broken"):
            tab.minimize({1: Fraction(1)})

    def test_improving_ray_raises(self):
        # a boxed tableau has no unbounded column, and the slack basis has
        # no all-nonpositive column either, so one is made by hand: finding
        # one is a bug
        tab = ExactSimplex(eq3_system())
        for i in tab._cols[0]:
            tab.T[i][0] = -abs(tab.T[i][0])
        with pytest.raises(RuntimeError, match="ray"):
            tab._ratio_leave(0)


def count_pivots(monkeypatch):
    """Patch ``ExactSimplex._pivot`` to count its calls under "pivots" in
    the returned Counter."""
    taken = Counter()
    real_pivot = ExactSimplex._pivot

    def counted(tab, r, c):
        taken["pivots"] += 1
        real_pivot(tab, r, c)

    monkeypatch.setattr(ExactSimplex, "_pivot", counted)
    return taken


def farkas_rows(tab):
    """Rows that prove infeasibility: negative right-hand side, no negative
    entry."""
    rhs = tab.ncols
    return [i for i in range(tab.m) if tab.T[i].get(rhs, 0) < 0
            and all(x >= 0 for j, x in tab.T[i].items() if j != rhs)]


class TestDual:
    def test_leaving_row_and_entering_column(self, monkeypatch):
        # each dual pivot leaves on the negative row with the smallest basic
        # variable and enters the smallest column with a negative entry in
        # it; _pivot sees that row already negated
        seen = Counter()
        real_pivot = ExactSimplex._pivot

        def checked(tab, r, c):
            T, rhs = tab.T, tab.ncols
            negative = [i for i in range(tab.m) if T[i].get(rhs, 0) < 0]
            assert T[r][rhs] > 0
            assert tab.basis[r] < min((tab.basis[i] for i in negative),
                                      default=tab.ncols)
            assert c == min(j for j, x in T[r].items() if x > 0 and j != rhs)
            seen["pivots"] += 1
            # a smaller row index is negative too: row order would differ
            seen["later row"] += any(i < r for i in negative)
            real_pivot(tab, r, c)

        monkeypatch.setattr(ExactSimplex, "_pivot", checked)
        # x2 >= 1/3 and x1 + x2 >= 1 pivot x2 into row 1 and x1 into row
        # 2; the pivot on x2 >= 2 then leaves rows 0, 2 and 6 negative, and
        # row 2 leaves first, as x1 is the smallest basic variable
        later = InequalitySystem(2, [
            BoundedInequality({2: 3}, Fraction(1), Fraction(5, 2)),
            BoundedInequality({1: -3, 2: -3}, Fraction(-5), Fraction(-3)),
            BoundedInequality({2: -1}, Fraction(-6), Fraction(-2))])
        for sys_ in pivot_systems() + [later]:
            ExactSimplex(sys_).feasible()
        assert seen["pivots"] > 40 and seen["later row"]

    def test_farkas_row_after_pivots(self, monkeypatch):
        # x1 + x2 >= 3/2 and x1 <= 1/4 cannot both hold with x2 <= 1, yet
        # no row of the slack basis shows it: the dual pivots first
        sys_ = InequalitySystem(2, [
            BoundedInequality({1: 1, 2: 1}, Fraction(3, 2), Fraction(2)),
            BoundedInequality({1: 1}, Fraction(0), Fraction(1, 4))])
        tab = ExactSimplex(sys_)
        assert farkas_rows(tab) == []
        taken = count_pivots(monkeypatch)
        assert not tab.feasible()
        assert taken["pivots"] >= 1 and farkas_rows(tab)
        assert tab.minimize({1: Fraction(1)}) is None
        assert oracle_minimum(sys_, {1: Fraction(1)}) is None

    def test_dual_degenerate_terminates(self):
        """Every cost is zero while the dual runs, so every ratio ties and
        every pivot is dual-degenerate; only Bland's rule on the dual (see
        the module docstring) keeps the pivots from cycling.  Here the
        rows also tie in the primal: four covering rows, all negative at
        the slack basis, and x1 = x2 = x3 as rows with right-hand side 0."""
        rows = [BoundedInequality({1: 1, 2: 1, 3: 1}, Fraction(1), Fraction(3)),
                BoundedInequality({1: 1, 2: 1}, Fraction(1), Fraction(2)),
                BoundedInequality({2: 1, 3: 1}, Fraction(1), Fraction(2)),
                BoundedInequality({1: 1, 3: 1}, Fraction(1), Fraction(2)),
                BoundedInequality({1: 1, 2: -1}, Fraction(0), Fraction(0)),
                BoundedInequality({2: 1, 3: -1}, Fraction(0), Fraction(0))]
        sys_ = InequalitySystem(3, rows)
        tab = ExactSimplex(sys_)
        assert tab.feasible()
        assert all(tab.T[i].get(tab.ncols, 0) >= 0 for i in range(tab.m))
        obj = {1: Fraction(1), 2: Fraction(1), 3: Fraction(1)}
        assert tab.minimize(obj) == Fraction(3, 2) == oracle_minimum(sys_, obj)
        assert tab.witness() == (Fraction(1, 2),) * 3

    def test_horn_pivots_are_the_minimal_model(self, monkeypatch):
        # on a satisfiable Horn system the dual is unit propagation: one
        # pivot per variable of the minimal model, after which the vertex is
        # the least element and min sum x takes no pivot
        taken = count_pivots(monkeypatch)
        rng = random.Random(47)
        done = 0
        while done < 150:
            cnf = random_horn_cnf(rng, rng.randint(1, 30), rng.randint(1, 40))
            model = solve_horn_unit_prop(cnf)
            if model.status != "SAT":
                continue
            done += 1
            tab = ExactSimplex(cnf_to_system(cnf))
            taken.clear()
            assert tab.feasible()
            assert taken["pivots"] == sum(model.witness)
            tab.minimize({v: Fraction(1) for v in range(1, cnf.num_vars + 1)})
            assert taken["pivots"] == sum(model.witness)
            assert tab.witness() == model.witness


# ---------------------------------------------------------------------------
# pivots against a dense reference, and the rows a pivot leaves alone
# ---------------------------------------------------------------------------

def dense_bareiss(rows, D, r, c):
    """Reference pivot on python ints: T[i] <- (piv*T[i] - T[i,c]*T[r]) / D
    for every row but r, each division checked to be exact."""
    piv, top = rows[r][c], rows[r]
    out = []
    for i, row in enumerate(rows):
        if i == r:
            out.append(top)
            continue
        quot_rems = [divmod(piv * x - row[c] * y, D) for x, y in zip(row, top)]
        assert all(rem == 0 for _, rem in quot_rems)
        out.append([q for q, _ in quot_rems])
    return out, piv


# 2**29-scale coefficients: dense entries pass 2**63 mid-solve
BIG_SYSTEM = InequalitySystem(2, [
    BoundedInequality({1: -25377433, 2: 508707755},
                      Fraction(-201858170), Fraction(213204361)),
    BoundedInequality({1: 224509738, 2: 116781981},
                      Fraction(113439365), Fraction(576925975)),
    BoundedInequality({1: -426614132}, Fraction(-379608811), Fraction(-341677757))])


def pivot_systems():
    rng = random.Random(46)
    systems = [cnf_to_system(random_horn_cnf(rng, rng.randint(2, 10),
                                             rng.randint(1, 15)))
               for _ in range(15)]
    systems += [random_system(rng, rng.randint(2, 5), rng.randint(1, 6))
                for _ in range(15)]
    return systems + [BIG_SYSTEM]


class TestPivot:
    def test_every_pivot_matches_dense_bareiss(self, monkeypatch):
        taken = Counter()
        biggest = 0
        real_pivot = ExactSimplex._pivot

        def checked(tab, r, c):
            nonlocal biggest
            before = dense(tab)
            want_T, want_D = dense_bareiss(before, tab.D, r, c)
            want_basis = tab.basis[:r] + [c] + tab.basis[r + 1:]
            taken["piv == D" if before[r][c] == tab.D else "piv != D"] += 1
            # the dual negates its pivot row first, basic entry included
            taken["negated row"] += before[r][tab.basis[r]] < 0
            # a rewritten row last written at another denominator than the
            # pivot's is rescaled, not updated in place
            taken["rescaled"] += sum(1 for i, row in enumerate(tab.T)
                                     if i != r and c in row
                                     and tab.d[i] != want_D)
            real_pivot(tab, r, c)
            assert dense(tab) == want_T
            assert (tab.D, tab.basis) == (want_D, want_basis)
            # the column index names exactly the rows with a non-zero
            assert tab._cols == [{i for i, row in enumerate(tab.T) if j in row}
                                 for j in range(tab.ncols + 1)]
            biggest = max(biggest, max(abs(x) for row in want_T for x in row))

        monkeypatch.setattr(ExactSimplex, "_pivot", checked)
        for sys_ in pivot_systems():
            ExactSimplex(sys_).intervals()
        assert taken["piv == D"] and taken["piv != D"] and taken["rescaled"]
        assert taken["negated row"]
        assert biggest >= 2 ** 63

    def test_pivot_leaves_rows_without_its_column_untouched(self, monkeypatch):
        untouched = Counter()  # piv == D -> rows with a zero in the column
        real_pivot = ExactSimplex._pivot

        def checked(tab, r, c):
            keep = {i: (dict(row), tab.d[i]) for i, row in enumerate(tab.T)
                    if i != r and c not in row}
            branch = tab.T[r][c] * tab.D // tab.d[r] == tab.D
            real_pivot(tab, r, c)
            for i, (row, d) in keep.items():
                assert (tab.T[i], tab.d[i]) == (row, d)
            untouched[branch] += len(keep)

        monkeypatch.setattr(ExactSimplex, "_pivot", checked)
        for sys_ in pivot_systems():
            ExactSimplex(sys_).intervals()
        assert untouched[True] and untouched[False]

    def _pivot_case(self, row, value):
        # eq3's initial tableau has D = 1, and pivot (4, 0) has piv = 1:
        # rows 0, 1 and 4 have a non-zero in column 0, row 5 does not
        tab = ExactSimplex(eq3_system())
        T = dense(tab)
        assert tab.D == T[4][0] == 1 and T[5][0] == 0 != T[0][0]
        tab.T[row][tab.ncols] = value
        before = dense(tab)
        tab._pivot(4, 0)
        return tab, before

    def test_big_entry_in_a_row_the_pivot_keeps(self):
        tab, before = self._pivot_case(5, 2 ** 40)
        assert dense(tab)[5] == before[5]
        assert tab.T[5][tab.ncols] == 2 ** 40
        assert dense(tab) == dense_bareiss(before, 1, 4, 0)[0]

    def test_big_entry_in_a_rewritten_row(self):
        tab, before = self._pivot_case(0, 2 ** 40)
        assert dense(tab) == dense_bareiss(before, 1, 4, 0)[0]
        assert dense(tab)[0] != before[0]
