import random
from fractions import Fraction

import pytest

from satmargin.cnf import CNF, evaluate, solve_horn_unit_prop
from satmargin.chains import synthesize_fragment_family
from satmargin.horn_lp import solve_horn_margin
from satmargin.reduction import cnf_to_system
from satmargin.simplex import ExactSimplex

from conftest import random_horn_cnf


class TestExamples:
    def test_forced_ones(self):
        report = solve_horn_margin(CNF.from_ints(2, ors=[[1], [-1, 2]]))
        assert report.result.status == "SAT"
        assert report.result.witness == (1, 1)
        assert report.intervals == {1: (1, 1), 2: (1, 1)}
        assert report.selected == {1, 2}
        assert report.agreed_with_unit_prop

    def test_forced_zeros(self):
        report = solve_horn_margin(CNF.from_ints(2, ors=[[-1], [-2, 1]]))
        assert report.result.status == "SAT"
        assert report.result.witness == (0, 0)
        assert report.intervals == {1: (0, 0), 2: (0, 0)}
        assert report.selected == frozenset()

    def test_lp_infeasible(self):
        report = solve_horn_margin(CNF.from_ints(1, ors=[[1], [-1]]))
        assert report.result.status == "UNSAT"
        assert report.intervals is None
        assert report.agreed_with_unit_prop

    def test_rejects_non_horn(self):
        with pytest.raises(ValueError):
            solve_horn_margin(CNF.from_ints(2, ors=[[1, 2]]))

    def test_failed_verification_is_an_internal_error(self, monkeypatch):
        # a feasible Horn LP whose vertex reads all zeros, as only a broken
        # simplex could give: x1 = 0 fails the unit clause, and the solver
        # must raise instead of reporting UNSAT
        cnf = CNF.from_ints(2, ors=[[1], [-1, 2]])
        monkeypatch.setattr(ExactSimplex, "witness",
                            lambda self: (Fraction(0),) * self.n)
        with pytest.raises(RuntimeError, match="fails the CNF"):
            solve_horn_margin(cnf)


class TestAgreementSuite:
    def test_total_agreement(self):
        rng = random.Random(80)
        sat = unsat = 0
        for _ in range(200):
            cnf = random_horn_cnf(rng, rng.randint(1, 15), rng.randint(1, 30))
            report = solve_horn_margin(cnf)
            reference = solve_horn_unit_prop(cnf)
            assert report.result.status == reference.status
            assert report.agreed_with_unit_prop
            if report.result.satisfiable:
                sat += 1
                assert evaluate(cnf, report.result.witness)
                assert report.result.witness == reference.witness
            else:
                unsat += 1
        assert sat > 20 and unsat > 20  # the suite exercises both outcomes

    def test_witness_is_minimal_model(self):
        rng = random.Random(81)
        for _ in range(60):
            cnf = random_horn_cnf(rng, rng.randint(1, 10), rng.randint(1, 18))
            report = solve_horn_margin(cnf)
            if report.result.satisfiable:
                assert report.result.witness == report.unit_prop.witness


class TestAsymmetry:
    def test_value_one_bounds_sharp(self):
        # variables forced to 1 carry interval lower bound exactly 1
        rng = random.Random(82)
        seen_sharp = False
        for _ in range(40):
            cnf = random_horn_cnf(rng, rng.randint(1, 10), rng.randint(1, 18))
            report = solve_horn_margin(cnf)
            if not report.result.satisfiable:
                continue
            for v in report.selected:
                assert report.intervals[v][0] == 1
                seen_sharp = True
        assert seen_sharp

    def test_value_zero_upper_bound_shrinks_with_coupling(self):
        # on Horn-coupler families the dominant variable's feasible value is
        # 0 and its LP upper bound approaches 1 from below as e grows: the
        # infeasible point x=1 sits exponentially near the polytope
        uppers = []
        for e in (1, 2, 3):
            inst = synthesize_fragment_family("horn-coupler", e=e, c=3, b=2)
            report = solve_horn_margin(inst.cnf)
            assert report.result.satisfiable
            v = inst.dominant_var
            assert report.result.witness[v - 1] == 0
            lo, hi = report.intervals[v]
            assert lo == 0 and hi < 1
            uppers.append(hi)
        assert uppers == [Fraction(0), Fraction(2, 3), Fraction(6, 7)]


class TestLeastElement:
    """Horn rows as >= rows have at most one positive coefficient, so the
    relaxation has a least element (Cottle & Veinott 1972): the optimum of
    min sum x is every variable's lower bound at once."""

    @staticmethod
    def instances():
        rng = random.Random(83)
        for _ in range(150):
            yield random_horn_cnf(rng, rng.randint(1, 12), rng.randint(1, 24))
        for fragment in ("horn-coupler", "horn-dominant"):
            for e in (1, 2, 3):
                for c in (2, 3):
                    yield synthesize_fragment_family(fragment, e=e, c=c, b=2).cnf

    def test_least_element_is_per_variable_minima(self):
        checked = 0
        for cnf in self.instances():
            system = cnf_to_system(cnf)
            intervals = ExactSimplex(system).intervals()
            if intervals is None:
                continue
            tab = ExactSimplex(system)
            tab.minimize({v: Fraction(1) for v in range(1, cnf.num_vars + 1)})
            assert tab.witness() == tuple(intervals[v][0]
                                          for v in range(1, cnf.num_vars + 1))
            report = solve_horn_margin(cnf)
            assert report.selected == {v for v, (lo, _) in intervals.items()
                                       if lo > 0}
            checked += 1
        assert checked > 60

    def test_intervals_not_computed_by_solve(self):
        rng = random.Random(84)
        for _ in range(20):
            cnf = random_horn_cnf(rng, rng.randint(1, 10), rng.randint(1, 18))
            report = solve_horn_margin(cnf)
            assert "intervals" not in report.__dict__
            assert report.intervals == \
                ExactSimplex(cnf_to_system(cnf)).intervals()
            assert "intervals" in report.__dict__

    def test_intervals_reuse_the_solve_tableau(self, monkeypatch):
        built, pivots = [], []
        init, pivot = ExactSimplex.__init__, ExactSimplex._pivot

        def counting_init(self, system):
            built.append(system)
            init(self, system)

        def counting_pivot(self, r, c):
            pivots.append((r, c))
            pivot(self, r, c)

        monkeypatch.setattr(ExactSimplex, "__init__", counting_init)
        monkeypatch.setattr(ExactSimplex, "_pivot", counting_pivot)
        inst = synthesize_fragment_family("horn-coupler", e=2, c=3, b=2)
        report = solve_horn_margin(inst.cnf)
        assert len(built) == 1
        assert report.intervals[inst.dominant_var] == (0, Fraction(2, 3))
        assert len(built) == 1
        # an LP-infeasible CNF: the dual already said so, nothing pivots again
        report = solve_horn_margin(CNF.from_ints(2, ors=[[1], [2], [-1, -2]]))
        assert report.result.status == "UNSAT"
        solved = len(pivots)
        assert report.intervals is None
        assert len(pivots) == solved and len(built) == 2
