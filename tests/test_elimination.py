import random
from fractions import Fraction

import pytest

from satmargin.cnf import parse_dimacs, brute_force_models
from satmargin.chains import CoupledFamilySpec, synthesize, \
    synthesize_fragment_family
from satmargin.elimination import (
    AggregationError, RowBlowupError, _Workspace, chain_aggregate,
    chain_weights, decompose_base_b, digits_match, fm_project,
    integral_tighten, max_exponent, number_system_report,
)
from satmargin.reduction import (BoundedInequality, InequalitySystem,
                                 cnf_to_system, fix_variables, satisfies)
from satmargin.simplex import ExactSimplex

from conftest import (EQ1_DIMACS, random_system, random_rational_point,
                      random_2sat_cnf)


def eq3_system():
    return cnf_to_system(parse_dimacs(EQ1_DIMACS))


def two_sided(coeffs, lower, upper):
    return BoundedInequality(coeffs, Fraction(lower), Fraction(upper))


class TestFmEliminate:
    """One variable eliminated: fm_project keeping all the others."""

    def test_pairwise_combination(self):
        # x2+x3 >= 1 and -x2+x4 >= 0 combine to x3+x4 >= 1
        sys_ = InequalitySystem(4, [
            two_sided({2: 1, 3: 1}, 1, 2),
            two_sided({2: -1, 4: 1}, 0, 1),
        ])
        projected, trace = fm_project(sys_, {1, 3, 4})
        (step,) = trace.steps
        assert step.var == 2
        keys = {row.key(): (row.lower, row.upper) for row in projected.rows}
        assert ((3, 1), (4, 1)) in keys
        lo, hi = keys[((3, 1), (4, 1))]
        assert lo == 1

    def test_eliminated_variable_gone(self):
        projected, trace = fm_project(eq3_system(), {2, 3, 4})
        (step,) = trace.steps
        assert step.var == 1
        assert all(1 not in row.coeffs for row in projected.rows)
        # the surviving constraint set is x2 + x3 >= 1 (everything else
        # x1-related is implied by the box after elimination)
        assert any(row.coeffs == {2: 1, 3: 1} for row in projected.rows)

    def test_absent_variable_noop(self):
        sys2 = InequalitySystem(3, [two_sided({1: 1}, 0, 1)])
        _, trace = fm_project(sys2, {1, 2})
        (step2,) = trace.steps
        assert step2.var == 3
        assert step2.combinations == []

    def test_range_check(self):
        with pytest.raises(ValueError):
            fm_project(eq3_system(), {9})


class TestFmProject:
    def test_eq3_keep_x1(self):
        projected, trace = fm_project(eq3_system(), {1})
        (row,) = projected.rows
        assert row.coeffs == {1: 1}
        assert (row.lower, row.upper) == (Fraction(1, 3), 1)
        assert trace.final_system is projected
        assert len(trace.steps) == 3

    def test_keep_everything_identity(self):
        projected, trace = fm_project(eq3_system(), {1, 2, 3, 4})
        assert trace.steps == []
        original = {(r.key(), r.lower, r.upper) for r in eq3_system().rows}
        kept = {(r.key(), r.lower, r.upper) for r in projected.rows}
        assert kept == original

    def test_infeasible_input(self):
        sys_ = InequalitySystem(2, [
            two_sided({1: 1}, 1, 1),
            two_sided({1: -1}, 0, 0),
            two_sided({2: 1}, 0, 1),
        ])
        projected, _ = fm_project(sys_, {2})
        assert any(not row.coeffs and row.lower > row.upper
                   for row in projected.rows)

    def test_greedy_order_pinned(self):
        # the greedy cost is (lower rows + 1) * (upper rows + 1), absent
        # variables first, ties on the smaller index
        _, trace = fm_project(eq3_system(), {1})
        assert [s.var for s in trace.steps] == [3, 4, 2]
        inst = synthesize_fragment_family("horn-coupler", e=4, c=2, b=2, d=2,
                                          seed=7)
        assert inst.candidate_vars == [12, 13]
        _, trace = fm_project(cnf_to_system(inst.cnf), {12, 13})
        assert [s.var for s in trace.steps] == [1, 2, 3, 4, 9, 5, 6, 10,
                                                7, 8, 11]

    def test_order_policies_agree(self):
        rng = random.Random(51)
        for _ in range(15):
            sys_ = random_system(rng, 5, 6)
            keep = {1, 2}
            a, _ = fm_project(sys_, keep, order="greedy")
            b, _ = fm_project(sys_, keep, order="given")
            # same projected set: cross-check membership on sample points
            for _ in range(40):
                pt = random_rational_point(rng, 5)
                assert satisfies(a, pt) == satisfies(b, pt)

    def test_blowup_guard(self):
        rng = random.Random(52)
        sys_ = random_system(rng, 8, 12)
        with pytest.raises(RowBlowupError) as err:
            fm_project(sys_, {1}, max_rows=2)
        assert (err.value.var, err.value.step) == (4, 0)

    def test_blowup_raises_inside_the_pair_loop(self):
        # a step's rows only grow, so the cap is checked after each new row:
        # the step stops at max_rows + 1 rows instead of finishing its pairs
        sys_ = random_system(random.Random(52), 8, 12)
        ws = _Workspace(sys_, max_rows=30)
        with pytest.raises(RowBlowupError) as err:
            for step, var in enumerate(range(8, 1, -1)):
                before = len(ws.trace.rows)
                ws.eliminate(var, step)
        assert (err.value.var, err.value.step) == (5, 3)
        # the step's two box rows, then at most max_rows + 1 new rows
        assert len(ws.trace.rows) <= before + 2 + 30 + 1

    def test_trace_recomputes(self):
        projected, trace = fm_project(eq3_system(), {1, 2})
        for step in trace.steps:
            for comb in step.combinations:
                lo_c, lo_b = trace.rows[comb.lower_id]
                hi_c, hi_b = trace.rows[comb.upper_id]
                new_c, new_b = trace.rows[comb.new_id]
                acc = {}
                for v, c in lo_c.items():
                    acc[v] = acc.get(v, 0) + comb.mult_lower * c
                for v, c in hi_c.items():
                    acc[v] = acc.get(v, 0) + comb.mult_upper * c
                acc = {v: c for v, c in acc.items() if c != 0}
                assert comb.mult_lower > 0 and comb.mult_upper > 0
                assert acc == {v: Fraction(c) for v, c in new_c.items()}
                assert comb.mult_lower * lo_b + comb.mult_upper * hi_b == new_b

    def test_trace_text_format(self):
        # pins the order ids are given out in: source rows, then each step's
        # two box rows before its combinations
        _, trace = fm_project(eq3_system(), {1})
        assert trace.to_text() == """\
row0 := x1 - x2 - x4 >= -1
row1 := -x1 + x2 + x4 >= -1
row2 := x1 - x3 >= 0
row3 := -x1 + x3 >= -1
row4 := x2 + x3 >= 1
row5 := -x2 - x3 >= -2
row6 := -x2 + x4 >= 0
row7 := x2 - x4 >= -1
row8 := x3 >= 0
row9 := -x3 >= -1
row11 := x4 >= 0
row12 := -x4 >= -1
row14 := x2 >= 0
row15 := -x2 >= -1
step x3: row4 * 1 + row2 * 1 -> row10
step x4: row6 * 1 + row0 * 1 -> row13
step x2: row10 * 2/3 + row13 * 1/3 -> row16
"""

    def test_equal_rows_keep_the_first(self):
        # rows 0 and 4 are equal and lack x2; after x2 goes, row 0 survives
        dup = two_sided({1: 1, 3: -1}, Fraction(1, 2), 1)
        sys_ = InequalitySystem(3, [dup, two_sided({2: 1}, Fraction(1, 2), 1), dup])
        _, trace = fm_project(sys_, {1}, order="given")
        assert trace.to_text().splitlines()[-1] == \
            "step x3: row8 * 1 + row0 * 1 -> row10"

    def test_lp_redundancy_prunes_joint_implications(self):
        # after eliminating x3, the derived row x1+x2 >= 1 is implied by the
        # derived singles x1 >= 1/2 and x2 >= 1/2 jointly; only the LP pass
        # can see that
        sys_ = InequalitySystem(3, [
            two_sided({3: 1}, Fraction(3, 4), 1),
            two_sided({1: 1, 3: -1}, Fraction(-1, 4), 1),
            two_sided({2: 1, 3: -1}, Fraction(-1, 4), 1),
            two_sided({1: 1, 2: 1, 3: -2}, Fraction(-1, 2), 2),
        ])
        loose, _ = fm_project(sys_, {1, 2})
        pruned, _ = fm_project(sys_, {1, 2}, lp_redundancy=True)
        assert any(r.coeffs == {1: 1, 2: 1} for r in loose.rows)
        assert not any(r.coeffs == {1: 1, 2: 1} for r in pruned.rows)
        assert any(r.coeffs == {1: 1} and r.lower == Fraction(1, 2)
                   for r in pruned.rows)
        # same solution set either way
        rng = random.Random(55)
        for _ in range(60):
            pt = random_rational_point(rng, 3)
            assert satisfies(loose, pt) == satisfies(pruned, pt)

    def test_lp_redundancy_keeps_infeasibility_certificate(self):
        sys_ = InequalitySystem(2, [
            two_sided({1: 1}, 1, 1),
            two_sided({1: -1}, 0, 0),
            two_sided({2: 1}, 0, 1),
        ])
        projected, _ = fm_project(sys_, {2}, lp_redundancy=True)
        assert any(not r.coeffs and r.lower > r.upper for r in projected.rows)


class TestIntegralTighten:
    def test_rounding(self):
        sys_ = InequalitySystem(1, [two_sided({1: 2}, 1, 3)])
        tightened = integral_tighten(sys_)
        (row,) = tightened.rows
        assert row.coeffs == {1: 1}
        assert (row.lower, row.upper) == (1, 1)

    def test_never_applied_implicitly(self):
        # projection output keeps rational bounds as-is
        projected, _ = fm_project(eq3_system(), {1})
        assert projected.rows[0].lower == Fraction(1, 3)

    def test_integral_points_preserved(self):
        from conftest import random_cnf
        from satmargin.reduction import integral_points
        rng = random.Random(56)
        for _ in range(25):
            cnf = random_cnf(rng, rng.randint(1, 7), rng.randint(1, 10))
            keep = {1} if cnf.num_vars == 1 else {1, 2}
            projected, _ = fm_project(cnf_to_system(cnf), keep)
            before = integral_points(projected)
            after = integral_points(integral_tighten(projected))
            assert before == after


class TestFmExactness:
    """Membership in the FM projection must equal extension-LP feasibility."""

    def test_exactness_oracle(self):
        rng = random.Random(60)
        for _ in range(25):
            n = rng.randint(2, 6)
            sys_ = random_system(rng, n, rng.randint(1, 8))
            keep = set(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
            projected, _ = fm_project(sys_, keep)
            for _ in range(30):
                point = {v: Fraction(rng.randint(-2, 10), 8) for v in keep}
                padded = tuple(point.get(v, Fraction(0))
                               for v in range(1, n + 1))
                member = satisfies(projected, padded)
                extension = fix_variables(sys_, point)
                feasible = ExactSimplex(extension).feasible()
                assert member == feasible, (sys_, keep, point)


class TestChainAggregate:
    def test_weights(self):
        # e=4 with (1, b) multiplicities has chain weights b^3, b^2, b, 1
        assert chain_weights([1, 2, 1, 2, 1, 2]) == [8, 4, 2, 1]
        assert chain_weights([]) == [1]
        # general multipliers follow the nested products
        assert chain_weights([3, 5, 7, 2]) == [5 * 2, 3 * 2, 3 * 7]

    def test_bmin_coupler_value_one(self):
        spec = CoupledFamilySpec(e=3, b=2, c=3, d=1, digits=((1, 1, 1),))
        agg = chain_aggregate(synthesize(spec))
        assert agg.b_min == 1
        assert agg.row.coeffs == {synthesize(spec).candidate_vars[0]: 7}

    def test_bmin_coupler_value_zero(self):
        spec = CoupledFamilySpec(e=3, b=2, c=3, d=1, digits=((1, 1, 1),),
                                 coupler_value=0)
        agg = chain_aggregate(synthesize(spec))
        assert agg.b_min == 1

    def test_positional_value(self):
        spec = CoupledFamilySpec(e=3, b=2, c=4, d=1, digits=((1, 1, 1),))
        inst = synthesize(spec)
        agg = chain_aggregate(inst)
        assert agg.row.coeffs[inst.dominant_var] == 1 * 4 + 1 * 2 + 1

    def test_aggregate_implied_by_models(self):
        # every brute-force model satisfies the aggregate row
        for spec in [
            CoupledFamilySpec(e=2, b=2, c=2, d=1, digits=((1, 1),)),
            CoupledFamilySpec(e=3, b=2, c=2, d=2, digits=((1, 0, 1), (0, 1, 0))),
            CoupledFamilySpec(e=2, b=3, c=3, d=1, digits=((2, 1),)),
            CoupledFamilySpec(e=3, b=2, c=2, d=1, digits=((1, 1, 1),),
                              fragment="horn-coupler"),
            CoupledFamilySpec(e=3, b=1, c=2, d=1, digits=((1, 0, 0),),
                              fragment="2sat"),
            CoupledFamilySpec(e=2, b=2, c=2, d=1, digits=((0, 1),),
                              fragment="horn-dominant"),
            CoupledFamilySpec(e=2, b=2, c=2, d=1, digits=((1, 1),),
                              coupler_value=0),
        ]:
            inst = synthesize(spec)
            agg = chain_aggregate(inst)
            for m in brute_force_models(inst.cnf, cap=16):
                val = sum(agg.row.coeffs.get(v, 0) * m[v - 1]
                          for v in range(1, inst.cnf.num_vars + 1))
                assert agg.b_min <= val <= agg.b_max

    def test_cancellation_failure_detected(self):
        spec = CoupledFamilySpec(e=2, b=2, c=2, d=1, digits=((1, 1),))
        inst = synthesize(spec)
        with pytest.raises((AggregationError, ValueError)):
            chain_aggregate(inst, multipliers=[1, 3])

    def test_general_multipliers(self):
        # multiplicities (1, b) with custom weights still cancel when the
        # multipliers match the instance
        spec = CoupledFamilySpec(e=2, b=3, c=3, d=1, digits=((1, 1),))
        inst = synthesize(spec)
        agg = chain_aggregate(inst, multipliers=[1, 3])
        assert agg.row.coeffs[inst.dominant_var] == 1 * 3 + 1

    def test_rejects_xor(self):
        inst = synthesize_fragment_family("xor", e=2, c=2)
        with pytest.raises(ValueError):
            chain_aggregate(inst)


class TestNumberSystem:
    def test_decompose_examples(self):
        assert decompose_base_b(13, 3, 3) == [1, 1, 1]
        assert decompose_base_b(0, 4, 3) == [0, 0, 0]
        with pytest.raises(ValueError):
            decompose_base_b(2 ** 3, 2, 3)

    def test_decompose_base_one(self):
        assert decompose_base_b(7, 1, 3) == [7]

    def test_digits_match_generator_rows(self):
        assert digits_match(7, 2, (1, 1, 1))
        assert digits_match(5, 2, (1, 0, 1))
        assert not digits_match(6, 2, (1, 1, 1))
        # digit entries above b-1 are legal in generator rows
        assert digits_match(2 * 2 + 3, 2, (2, 3))

    def test_max_exponent(self):
        assert max_exponent(9, 2, 3) == 2
        assert max_exponent(12, 1, 2) == 4
        with pytest.raises(ValueError):
            max_exponent(3, 3, 1)

    def test_reconstruction_sweep(self):
        # a_i = sum digits * b^(e-j) for bases 2..5, exponents 1..4
        for b in (2, 3, 4, 5):
            for e in (1, 2, 3, 4):
                c = 3
                slots = (c + 1) * 1 + 2
                mid_room = slots - 1 - b
                if e >= 2 and b > c + 1:
                    continue  # coupler cannot occupy b distinct clauses
                row1 = tuple(min(1, max(0, mid_room)) if 0 < j < e - 1
                             else 1 for j in range(e))
                row2 = tuple(1 if j == 0 else 0 for j in range(e))
                if e >= 2 and mid_room < 0:
                    continue
                spec = CoupledFamilySpec(e=e, b=b, c=c, d=2,
                                         digits=(row1, row2))
                inst = synthesize(spec)
                report = number_system_report(inst)
                assert report.reconstruction_ok, (b, e)
                expected = sum(a * b ** (e - 1 - j) for j, a in enumerate(row1))
                assert report.coefficients[inst.dominant_var] == expected

    def test_growth_geometric(self):
        # all-ones digits: a1 = (b^e - 1)/(b - 1), strictly increasing in e
        for b in (2, 3):
            prev = 0
            for e in (1, 2, 3, 4):
                inst = synthesize_fragment_family("3sat", e=e, c=3, b=b)
                agg = chain_aggregate(inst)
                a1 = agg.row.coeffs[inst.dominant_var]
                assert a1 == (b ** e - 1) // (b - 1)
                assert a1 > prev
                prev = a1


class TestTwoSatBoundedness:
    def test_family_aggregate_small(self):
        for e in range(1, 7):
            inst = synthesize_fragment_family("2sat", e=e, c=2, d=2)
            agg = chain_aggregate(inst)
            assert all(abs(c) <= 2 for c in agg.row.coeffs.values())

    def test_projection_coefficients_bounded(self):
        rng = random.Random(61)
        for _ in range(20):
            cnf = random_2sat_cnf(rng, rng.randint(2, 8), rng.randint(1, 12))
            sys_ = cnf_to_system(cnf)
            keep = {1, 2} if cnf.num_vars >= 2 else {1}
            projected, _ = fm_project(sys_, keep)
            for row in projected.rows:
                assert all(abs(c) <= 2 for c in row.coeffs.values())

    def test_family_projection_bounded(self):
        for e in (2, 4, 6):
            inst = synthesize_fragment_family("2sat", e=e, c=1, d=2)
            sys_ = cnf_to_system(inst.cnf)
            projected, _ = fm_project(sys_, set(inst.candidate_vars))
            for row in projected.rows:
                assert all(abs(c) <= 2 for c in row.coeffs.values())
