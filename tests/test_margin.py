import random
from fractions import Fraction

import pytest

from satmargin.cnf import brute_force_models, dominant_variables
from satmargin.chains import CoupledFamilySpec, synthesize, \
    synthesize_fragment_family
from satmargin.elimination import chain_aggregate, fm_project
from satmargin.margin import (
    DecisionLineId, decision_interval, decision_margin, margin_decay_sweep,
)
from satmargin.reduction import (BoundedInequality, InequalitySystem,
                                 cnf_to_system, fix_variables)
from satmargin.simplex import ExactSimplex

from conftest import random_cnf


def unit_system():
    return InequalitySystem(1, [BoundedInequality({1: 1}, Fraction(1), Fraction(1))])


class TestDecisionInterval:
    def test_unit_row(self):
        line = DecisionLineId(1, ())
        assert decision_interval(unit_system(), line) == (1, 1)

    def test_aggregate_all_zero_line(self):
        # a1 x1 + a2 x2 in [b_min, b_max]; x2 = 0 gives [b_min/a1, min(1, b_max/a1)]
        sys_ = InequalitySystem(2, [BoundedInequality({1: 7, 2: 1},
                                                      Fraction(1), Fraction(20))])
        line = DecisionLineId(1, ((2, 0),))
        assert decision_interval(sys_, line) == (Fraction(1, 7), 1)

    def test_aggregate_companion_one(self):
        sys_ = InequalitySystem(2, [BoundedInequality({1: 7, 2: 3},
                                                      Fraction(1), Fraction(20))])
        line = DecisionLineId(1, ((2, 1),))
        lo, hi = decision_interval(sys_, line)
        assert lo == max(Fraction(0), Fraction(1 - 3, 7))
        assert hi == min(Fraction(1), Fraction(20 - 3, 7))

    def test_empty(self):
        sys_ = InequalitySystem(2, [BoundedInequality({1: 1, 2: 1},
                                                      Fraction(2), Fraction(2))])
        line = DecisionLineId(1, ((2, 0),))
        assert decision_interval(sys_, line) is None

    def test_constant_row_violation(self):
        sys_ = InequalitySystem(2, [BoundedInequality({2: 1},
                                                      Fraction(1), Fraction(1))])
        line = DecisionLineId(1, ((2, 0),))
        assert decision_interval(sys_, line) is None

    def test_negative_coefficient(self):
        sys_ = InequalitySystem(1, [BoundedInequality({1: -2},
                                                      Fraction(-1), Fraction(0))])
        line = DecisionLineId(1, ())
        assert decision_interval(sys_, line) == (0, Fraction(1, 2))

    def test_rows_in_order(self):
        # rows are read in order: a violated row ends the scan before a
        # later row with a variable the line neither fixes nor varies, and
        # the stray variable named is the row's first in coefficient order
        violated = BoundedInequality({2: 1}, 1, 1)
        stray = BoundedInequality({4: 1, 1: 1, 3: 1}, 0, 3)
        line = DecisionLineId(1, ((2, 0),))
        assert decision_interval(
            InequalitySystem(4, [violated, stray]), line) is None
        with pytest.raises(ValueError, match="mentions x4,"):
            decision_interval(InequalitySystem(4, [stray, violated]), line)


class TestDecisionMargin:
    def test_unit_clause(self):
        report = decision_margin(unit_system(), 1, 0, {1})
        assert report.margin == 1
        assert report.per_line[DecisionLineId(1, ())] == (1, 1)

    def test_companion_ratio_family(self):
        spec = CoupledFamilySpec(e=3, b=2, c=3, d=2,
                                 digits=((1, 1, 1), (0, 0, 1)))
        inst = synthesize(spec)
        agg = chain_aggregate(inst)
        a1 = agg.row.coeffs[inst.dominant_var]
        a2 = agg.row.coeffs[inst.candidate_vars[1]]
        assert (a1, a2) == (7, 1)
        report = decision_margin(cnf_to_system(inst.cnf), inst.dominant_var,
                                 0, set(inst.candidate_vars))
        assert report.margin <= Fraction(a2, a1)
        # the companion=1 line re-admits the infeasible point
        x2 = inst.candidate_vars[1]
        line1 = DecisionLineId(inst.dominant_var, ((x2, 1),))
        lo, hi = report.per_line[line1]
        assert lo <= 0 <= hi

    def test_2sat_margin_half_integral(self):
        inst = synthesize_fragment_family("2sat", e=4, c=1, d=2)
        report = decision_margin(cnf_to_system(inst.cnf), inst.dominant_var,
                                 0, set(inst.candidate_vars))
        assert report.margin >= Fraction(1, 2)

    def test_2sat_half_bound_is_attained(self):
        # a candidate hooked to both end chains reaches coefficient 2, and
        # the margin bottoms out at exactly 1/2
        spec = CoupledFamilySpec(e=3, b=1, c=2, d=1, digits=((1, 0, 1),),
                                 fragment="2sat")
        inst = synthesize(spec)
        agg = chain_aggregate(inst)
        assert agg.row.coeffs[inst.dominant_var] == 2
        report = decision_margin(cnf_to_system(inst.cnf), inst.dominant_var,
                                 0, set(inst.candidate_vars))
        assert report.margin == Fraction(1, 2)

    def test_margin_zero_when_not_dominant(self):
        # x1 free: both lines contain the would-be infeasible value
        sys_ = InequalitySystem(2, [BoundedInequality({1: 1, 2: 1},
                                                      Fraction(0), Fraction(2))])
        report = decision_margin(sys_, 1, 0, {1, 2})
        assert report.margin == 0
        assert not report.excluding_lines()

    def test_line_cap(self):
        sys_ = InequalitySystem(14, [])
        with pytest.raises(ValueError):
            decision_margin(sys_, 1, 0, set(range(1, 15)), line_cap=4)

    def test_requires_dominant_in_keep(self):
        with pytest.raises(ValueError):
            decision_margin(unit_system(), 1, 0, set())


class TestProjectionConsistency:
    """Per-line intervals from the FM projection equal exact-LP min/max of
    the dominant variable with the line's coordinates fixed."""

    def _check(self, system, dominant, keep):
        projected, _ = fm_project(system, set(keep))
        others = [v for v in keep if v != dominant]
        import itertools
        for values in itertools.product((0, 1), repeat=len(others)):
            line = DecisionLineId(dominant, tuple(zip(others, values)))
            interval = decision_interval(projected, line)
            fixed = fix_variables(system, {v: Fraction(val)
                                           for v, val in zip(others, values)})
            intervals = ExactSimplex(fixed).intervals()
            lp = None if intervals is None else intervals[dominant]
            assert interval == lp, (line, interval, lp)

    def test_on_synthesized(self):
        spec = CoupledFamilySpec(e=2, b=2, c=2, d=2, digits=((1, 1), (0, 1)))
        inst = synthesize(spec)
        self._check(cnf_to_system(inst.cnf), inst.dominant_var,
                    inst.candidate_vars)

    def test_on_random_cnfs(self):
        rng = random.Random(70)
        for _ in range(12):
            cnf = random_cnf(rng, rng.randint(2, 6), rng.randint(1, 8))
            keep = [1, 2] if cnf.num_vars >= 2 else [1]
            self._check(cnf_to_system(cnf), 1, keep)


class TestCertificationSoundness:
    def test_margin_positive_implies_dominant(self):
        # all lines excluding the infeasible value + margin > 0 => brute
        # force confirms dominance with the complementary value
        rng = random.Random(71)
        confirmed = 0
        while confirmed < 8:
            cnf = random_cnf(rng, rng.randint(2, 5), rng.randint(2, 8))
            models = brute_force_models(cnf)
            if not models:
                continue
            sys_ = cnf_to_system(cnf)
            keep = {1, 2} if cnf.num_vars >= 2 else {1}
            for iv in (0, 1):
                report = decision_margin(sys_, 1, iv, keep)
                if report.margin and not report.containing_lines():
                    dom = dominant_variables(cnf)
                    assert dom[1] == {1 - iv}
                    confirmed += 1


class TestSweeps:
    def test_3sat_decay(self):
        rows = margin_decay_sweep("3sat", [1, 2, 3, 4], b=2, c=3)
        assert [r.margin for r in rows] == [
            Fraction(1), Fraction(1, 3), Fraction(1, 7), Fraction(1, 15)]
        assert [r.a1 for r in rows] == [1, 3, 7, 15]
        for row in rows:
            assert row.b_min == 1
            assert row.margin == Fraction(row.b_min, row.a1)

    def test_2sat_constant(self):
        rows = margin_decay_sweep("2sat", range(1, 7), b=1, c=2, d=2)
        for row in rows:
            assert row.margin >= Fraction(1, 2)
            assert row.a1 <= 2

    def test_horn_dichotomy(self):
        decaying = margin_decay_sweep("horn-coupler", [1, 2, 3], b=2, c=3)
        assert [r.margin for r in decaying] == [
            Fraction(1), Fraction(1, 3), Fraction(1, 7)]
        constant = margin_decay_sweep("horn-dominant", [1, 2, 3], b=2, c=3)
        assert [r.margin for r in constant] == [Fraction(1)] * 3
        for row in constant:
            assert row.a1 <= 1

    def test_monotone_decay(self):
        for fragment in ("3sat", "horn-coupler"):
            rows = margin_decay_sweep(fragment, [1, 2, 3, 4], b=3, c=3)
            margins = [r.margin for r in rows]
            assert all(m2 < m1 for m1, m2 in zip(margins, margins[1:]))

    def test_full_system_matches_aggregate_for_small_e(self):
        cases = [("3sat", 2, 2, 1), ("horn-coupler", 2, 2, 1),
                 ("2sat", 1, 1, 2)]
        for fragment, b, c, d in cases:
            agg_rows = margin_decay_sweep(fragment, [1, 2, 3], b=b, c=c, d=d)
            full_rows = margin_decay_sweep(fragment, [1, 2, 3], b=b, c=c, d=d,
                                           aggregate_only=False)
            for a, f in zip(agg_rows, full_rows):
                assert a.margin == f.margin, (fragment, a.e)

    def test_xor_rejected(self):
        with pytest.raises(ValueError):
            margin_decay_sweep("xor", [1], b=1, c=2)
