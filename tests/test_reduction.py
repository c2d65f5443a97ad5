import itertools
import random
from fractions import Fraction

import pytest

from satmargin.cnf import CNF, parse_dimacs, brute_force_models, evaluate
from satmargin.reduction import (
    BoundedInequality, InequalitySystem, clause_to_inequality, cnf_to_system,
    satisfies, integral_points, fix_variables, format_system,
)

from conftest import EQ1_DIMACS, random_cnf


def eq1_system():
    return cnf_to_system(parse_dimacs(EQ1_DIMACS))


class TestClauseToInequality:
    def test_three_literal_clause(self):
        cnf = CNF.from_ints(4, ors=[[1, -2, -4]])
        row = clause_to_inequality(cnf.clauses[0])
        assert row.coeffs == {1: 1, 2: -1, 4: -1}
        assert (row.lower, row.upper) == (-1, 1)

    def test_two_positive(self):
        row = clause_to_inequality(CNF.from_ints(3, ors=[[2, 3]]).clauses[0])
        assert row.coeffs == {2: 1, 3: 1}
        assert (row.lower, row.upper) == (1, 2)

    def test_positive_unit(self):
        row = clause_to_inequality(CNF.from_ints(1, ors=[[1]]).clauses[0])
        assert row.coeffs == {1: 1} and (row.lower, row.upper) == (1, 1)

    def test_negative_unit(self):
        row = clause_to_inequality(CNF.from_ints(1, ors=[[-1]]).clauses[0])
        assert row.coeffs == {1: -1} and (row.lower, row.upper) == (0, 0)

    def test_rejects_xor(self):
        with pytest.raises(ValueError):
            clause_to_inequality(CNF.from_ints(2, xors=[[1, 2]]).clauses[0])

    def test_reorder_invariant(self):
        a = clause_to_inequality(CNF.from_ints(3, ors=[[1, -2, 3]]).clauses[0])
        b = clause_to_inequality(CNF.from_ints(3, ors=[[3, 1, -2]]).clauses[0])
        assert a.coeffs == b.coeffs and a.lower == b.lower and a.upper == b.upper

    def test_bound_tightness(self):
        # upper bound p is attained by switching on exactly the positive part
        rng = random.Random(2)
        for _ in range(30):
            cnf = random_cnf(rng, 6, 1, max_width=4)
            if not cnf.clauses:
                continue
            cl = cnf.clauses[0]
            row = clause_to_inequality(cl)
            point = [0] * 6
            for lit in cl.literals:
                if not lit.negated:
                    point[lit.var - 1] = 1
            assert row.value_at([Fraction(x) for x in point]) == row.upper
            assert row.lower == 1 - cl.negative_count()


class TestInequalitySystem:
    def test_unboxed_rejected(self):
        # every system lies in the 0/1 box, which is what keeps every LP
        # bounded and every enumeration finite
        with pytest.raises(ValueError, match="0/1 box"):
            InequalitySystem(
                1, [BoundedInequality({1: 1}, Fraction(0), Fraction(10 ** 9))],
                box=False)


class TestCnfToSystem:
    def test_eq3_rows(self):
        sys_ = eq1_system()
        assert sys_.box and sys_.num_vars == 4
        rows = [(r.coeffs, r.lower, r.upper) for r in sys_.rows]
        assert rows == [
            ({1: 1, 2: -1, 4: -1}, -1, 1),
            ({1: 1, 3: -1}, 0, 1),
            ({2: 1, 3: 1}, 1, 2),
            ({2: -1, 4: 1}, 0, 1),
        ]

    def test_empty(self):
        sys_ = cnf_to_system(CNF.from_ints(2))
        assert sys_.rows == [] and sys_.box

    def test_contradiction_no_integral_point(self):
        sys_ = cnf_to_system(CNF.from_ints(1, ors=[[1], [-1]]))
        assert integral_points(sys_) == []


class TestSatisfies:
    def test_integral_member(self):
        assert satisfies(eq1_system(), tuple(Fraction(1) for _ in range(4)))

    def test_row_violation(self):
        pt = (Fraction(0), Fraction(1), Fraction(0), Fraction(1))
        assert not satisfies(eq1_system(), pt)

    def test_box_violation(self):
        sys_ = InequalitySystem(1, [], box=True)
        assert not satisfies(sys_, (Fraction(2),))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            satisfies(eq1_system(), (Fraction(1),))

    def test_infeasible_row_rejects_everything(self):
        sys_ = InequalitySystem(1, [BoundedInequality({}, Fraction(1), Fraction(0))])
        assert not satisfies(sys_, (Fraction(0),))


class TestIntegralPoints:
    def test_eq3_equals_brute_force(self):
        cnf = parse_dimacs(EQ1_DIMACS)
        assert integral_points(cnf_to_system(cnf)) == brute_force_models(cnf)

    def test_box_only(self):
        assert integral_points(InequalitySystem(1, [])) == [(0,), (1,)]

    def test_requires_box(self):
        # an unboxed system has no finite set of integral points; it is
        # refused before integral_points can see it
        with pytest.raises(ValueError):
            integral_points(InequalitySystem(1, [], box=False))

    def test_faithfulness_suite(self):
        rng = random.Random(20)
        for _ in range(120):
            cnf = random_cnf(rng, rng.randint(1, 9), rng.randint(1, 15))
            assert integral_points(cnf_to_system(cnf)) == brute_force_models(cnf)

    def test_rational_bounds_thresholds(self):
        # value must be an integer in [1/2, 3/2] -> exactly 1
        sys_ = InequalitySystem(
            1, [BoundedInequality({1: 1}, Fraction(1, 2), Fraction(3, 2))])
        assert integral_points(sys_) == [(1,)]


class TestBitSlicedEnumeration:
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 18])
    def test_enumerations_across_the_chunk_boundary(self, n):
        # brute_force_models and integral_points enumerate 2^16 points per
        # chunk; variables 1 to n - 16 are the high ones, constant within
        # a chunk.  Both are compared with a plain product loop, which
        # yields the points in lexicographic order.
        rng = random.Random(n)

        def signed(vs):
            return [v if rng.random() < 0.5 else -v for v in vs]

        ors = [signed(sorted({1, n}))] if n else []
        if n > 16:  # literals on the high variables only
            ors.append(signed(range(1, n - 15)))
        ors += [signed(rng.sample(range(1, n + 1), 2 + k % 2))
                for k in range(6 if n > 2 else 0)]
        xors = [signed(rng.sample(range(1, n + 1), min(3, n)))] if n else []
        vs = rng.sample(range(1, n + 1), min(4, n))
        rows = [  # coefficients beyond +-1 and fractional bounds
            BoundedInequality(dict(zip(vs, [2, -3, 5, 1])),
                              Fraction(-7, 2), Fraction(1, 3)),
            BoundedInequality({}, Fraction(-1, 2), Fraction(1, 2))]
        if n > 16:
            rows.append(BoundedInequality(dict.fromkeys(range(1, n - 15), 3),
                                          Fraction(0), Fraction(7, 2)))
        or_cnf = CNF.from_ints(n, ors=ors)
        sys_ = InequalitySystem(n, rows + cnf_to_system(or_cnf).rows)
        cnf = CNF.from_ints(n, ors=ors, xors=xors)
        # one loop over all 2^n points; the models of cnf and the points of
        # sys_ both lie among the models of its OR clauses
        candidates = [a for a in itertools.product((0, 1), repeat=n)
                      if evaluate(or_cnf, a)]
        models = [a for a in candidates if evaluate(cnf, a)]
        points = [a for a in candidates if satisfies(sys_, a)]
        assert brute_force_models(cnf) == models
        assert integral_points(sys_) == points
        if n >= 15:  # neither side is empty or everything
            assert 0 < len(models) < len(candidates) < 2 ** n
            assert 0 < len(points) < len(candidates)


class TestFixVariables:
    def test_substitution(self):
        sys_ = eq1_system()
        fixed = fix_variables(sys_, {2: Fraction(1)})
        # row 3 (x2 + x3 in [1,2]) becomes x3 in [0,1]
        row = fixed.rows[2]
        assert row.coeffs == {3: 1} and (row.lower, row.upper) == (0, 1)

    def test_constant_row_violation(self):
        sys_ = cnf_to_system(CNF.from_ints(1, ors=[[1]]))
        fixed = fix_variables(sys_, {1: Fraction(0)})
        assert any(r.lower > r.upper for r in fixed.rows)

    def test_box_violation(self):
        sys_ = eq1_system()
        fixed = fix_variables(sys_, {1: Fraction(2)})
        assert any(r.lower > r.upper for r in fixed.rows)


class TestFormat:
    def test_eq3_text(self):
        text = format_system(eq1_system())
        assert text.splitlines() == [
            "-1 <= x1 - x2 - x4 <= 1",
            "0 <= x1 - x3 <= 1",
            "1 <= x2 + x3 <= 2",
            "0 <= -x2 + x4 <= 1",
        ]
        boxed = format_system(eq1_system(), include_box=True)
        assert boxed.splitlines()[4].startswith("box:")

    def test_rational_rendering(self):
        row = BoundedInequality({1: 2}, Fraction(1, 3), Fraction(5, 2))
        text = format_system(InequalitySystem(1, [row]))
        assert text == "1/3 <= 2*x1 <= 5/2\n"
