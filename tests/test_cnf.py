import itertools
import random

import pytest

from satmargin.cnf import (
    CNF, TriviallyUnsatError, DimacsError, BruteForceCapError,
    UnsatisfiableError, TWO_SAT, HORN, DUAL_HORN, XOR_TAG, general_k,
    parse_dimacs, to_dimacs, evaluate, classify, brute_force_models,
    dominant_variables, solve_2sat, solve_horn_unit_prop, solve_xor_gauss,
)

from conftest import (EQ1_DIMACS, random_cnf, random_2sat_cnf,
                      random_horn_cnf, random_xor_cnf)


def eq1():
    return parse_dimacs(EQ1_DIMACS)


class TestParse:
    def test_four_clause_formula(self):
        cnf = eq1()
        assert cnf.num_vars == 4
        assert [cl.ints() for cl in cnf.clauses] == [
            (1, -2, -4), (1, -3), (2, 3), (-2, 4)]

    def test_unit_clause(self):
        cnf = parse_dimacs("p cnf 1 1\n1 0\n")
        assert cnf.num_vars == 1
        assert [cl.ints() for cl in cnf.clauses] == [(1,)]

    def test_xor_extension(self):
        cnf = parse_dimacs("p cnf 3 1\nx 1 -2 3 0\n")
        (cl,) = cnf.clauses
        assert cl.kind == "xor"
        # one negation folds into parity: x1 ^ x2 ^ x3 must equal 0
        assert cl.ints() == (-1, 2, 3)

    def test_clause_spanning_lines(self):
        cnf = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert [cl.ints() for cl in cnf.clauses] == [(1, 2, 3)]

    def test_comments_ignored(self):
        cnf = parse_dimacs("c hello\np cnf 2 1\nc mid\n1 2 0\n")
        assert cnf.num_vars == 2

    def test_bytes_input(self):
        assert parse_dimacs(EQ1_DIMACS.encode()).num_vars == 4

    def test_malformed_header(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p dnf 2 1\n1 2 0\n")

    def test_out_of_range_literal(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 2 1\n1 3 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 2 2\n1 2 0\n")

    def test_empty_clause_is_trivially_unsat(self):
        with pytest.raises(TriviallyUnsatError):
            parse_dimacs("p cnf 2 2\n1 2 0\n0\n")

    def test_tautology_dropped_with_warning(self):
        with pytest.warns(UserWarning):
            cnf = parse_dimacs("p cnf 2 2\n1 -1 0\n1 2 0\n")
        assert len(cnf.clauses) == 1

    def test_duplicate_literal_deduplicated(self):
        cnf = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
        assert cnf.clauses[0].ints() == (1, 2)

    def test_xor_duplicates_cancel(self):
        cnf = parse_dimacs("p cnf 2 1\nx 1 1 2 0\n")
        assert cnf.clauses[0].ints() == (2,)

    def test_xor_cancels_to_false(self):
        with pytest.raises(TriviallyUnsatError):
            parse_dimacs("p cnf 1 1\nx 1 1 0\n")

    def test_xor_cancels_to_true_dropped(self):
        with pytest.warns(UserWarning):
            cnf = parse_dimacs("p cnf 1 1\nx 1 -1 0\n")
        assert cnf.clauses == ()

    def test_roundtrip_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            cnf = random_cnf(rng, rng.randint(1, 8), rng.randint(1, 12))
            text = to_dimacs(cnf)
            again = parse_dimacs(text)
            assert again == cnf
            assert to_dimacs(again) == text

    def test_roundtrip_xor(self):
        cnf = parse_dimacs("p cnf 4 2\nx 1 -2 3 0\nx -4 1 0\n")
        assert parse_dimacs(to_dimacs(cnf)) == cnf

    def test_raw_mode_keeps_duplicates(self):
        raw = parse_dimacs("p cnf 2 1\nx 1 2 2 0\n", normalize=False)
        assert raw.clauses[0].ints() == (1, 2, 2)

    def test_xor_connection_multiplicity_changes_satisfiability(self):
        # connecting a variable twice to an XOR clause cancels it: the raw
        # doubly-connected clause behaves like the bare one, unlike the
        # singly-connected clause
        doubled = parse_dimacs("p cnf 2 1\nx 1 2 2 0\n", normalize=False)
        single = parse_dimacs("p cnf 2 1\nx 1 2 0\n")
        assert evaluate(doubled, (1, 1)) and not evaluate(single, (1, 1))
        assert evaluate(doubled, (1, 0)) and not evaluate(single, (0, 0))
        normalized = parse_dimacs("p cnf 2 1\nx 1 2 2 0\n")
        assert normalized.clauses[0].ints() == (1,)


class TestEvaluate:
    def test_eq1_true(self):
        assert evaluate(eq1(), (1, 1, 1, 1))

    def test_eq1_false(self):
        assert not evaluate(eq1(), (0, 1, 0, 1))

    def test_unit_false(self):
        assert not evaluate(CNF.from_ints(1, ors=[[1]]), (0,))

    def test_xor_semantics(self):
        cnf = parse_dimacs("p cnf 3 1\nx 1 -2 3 0\n")
        # x1 ^ !x2 ^ x3 == 1
        assert evaluate(cnf, (1, 1, 0))
        assert not evaluate(cnf, (1, 0, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(eq1(), (1, 1, 1))


class TestClassify:
    def test_eq1_general3(self):
        assert classify(eq1()) == {general_k(3)}

    def test_horn_2sat(self):
        cnf = CNF.from_ints(3, ors=[[-1, 2], [-2, 3]])
        assert classify(cnf) == {TWO_SAT, HORN, DUAL_HORN, general_k(2)}

    def test_single_xor(self):
        cnf = CNF.from_ints(3, xors=[[1, 2, 3]])
        assert classify(cnf) == {XOR_TAG}

    def test_not_horn_two_positives(self):
        cnf = CNF.from_ints(2, ors=[[1, 2]])
        tags = classify(cnf)
        assert HORN not in tags and TWO_SAT in tags

    def test_reorder_stable(self):
        from satmargin.cnf import Clause
        rng = random.Random(3)
        for _ in range(30):
            cnf = random_cnf(rng, 6, 8)
            clauses = []
            for cl in cnf.clauses:
                lits = list(cl.literals)
                rng.shuffle(lits)
                clauses.append(Clause(tuple(lits), cl.kind))
            rng.shuffle(clauses)
            shuffled = CNF(cnf.num_vars, tuple(clauses))
            assert classify(shuffled) == classify(cnf)


class TestBruteForce:
    def test_eq1_models(self):
        assert brute_force_models(eq1()) == [
            (1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1)]

    def test_contradiction(self):
        assert brute_force_models(CNF.from_ints(1, ors=[[1], [-1]])) == []

    def test_vacuous(self):
        assert brute_force_models(CNF.from_ints(2)) == \
            list(itertools.product((0, 1), repeat=2))

    def test_cap(self):
        with pytest.raises(BruteForceCapError):
            brute_force_models(CNF.from_ints(30), cap=24)

    def test_agrees_with_evaluate(self):
        rng = random.Random(11)
        for _ in range(40):
            cnf = random_cnf(rng, rng.randint(1, 7), rng.randint(1, 10))
            models = set(brute_force_models(cnf))
            for a in itertools.product((0, 1), repeat=cnf.num_vars):
                assert (a in models) == evaluate(cnf, a)

    def test_xor_models(self):
        cnf = CNF.from_ints(2, xors=[[1, 2], [2]])
        assert brute_force_models(cnf) == [(0, 1)]


class TestDominant:
    def test_eq1(self):
        dom = dominant_variables(eq1())
        assert dom == {1: frozenset({1}), 2: frozenset({0, 1}),
                       3: frozenset({0, 1}), 4: frozenset({0, 1})}

    def test_unit(self):
        assert dominant_variables(CNF.from_ints(1, ors=[[1]])) == {
            1: frozenset({1})}

    def test_empty_formula(self):
        assert dominant_variables(CNF.from_ints(1)) == {1: frozenset({0, 1})}

    def test_unsat_reported(self):
        with pytest.raises(UnsatisfiableError):
            dominant_variables(CNF.from_ints(1, ors=[[1], [-1]]))

    def test_flip_falsifies(self):
        # a dominant value means flipping it in any model breaks a clause
        rng = random.Random(5)
        checked = 0
        while checked < 10:
            cnf = random_cnf(rng, rng.randint(2, 6), rng.randint(2, 9))
            models = brute_force_models(cnf)
            if not models:
                continue
            dom = dominant_variables(cnf)
            for v, vals in dom.items():
                if len(vals) != 1:
                    continue
                checked += 1
                for m in models:
                    flipped = list(m)
                    flipped[v - 1] ^= 1
                    assert not evaluate(cnf, tuple(flipped))


class TestSolvers:
    def test_2sat_example(self):
        res = solve_2sat(CNF.from_ints(2, ors=[[1, 2], [-1, 2]]))
        assert res.satisfiable and res.witness[1] == 1

    def test_2sat_unsat(self):
        assert not solve_2sat(CNF.from_ints(1, ors=[[1], [-1]])).satisfiable

    def test_2sat_trivial(self):
        assert solve_2sat(CNF.from_ints(2, ors=[[1, 2]])).satisfiable

    def test_2sat_rejects_wide(self):
        with pytest.raises(ValueError):
            solve_2sat(CNF.from_ints(3, ors=[[1, 2, 3]]))

    def test_horn_chain(self):
        res = solve_horn_unit_prop(
            CNF.from_ints(3, ors=[[1], [-1, 2], [-2, 3]]))
        assert res.satisfiable and res.witness == (1, 1, 1)

    def test_horn_unsat(self):
        assert not solve_horn_unit_prop(
            CNF.from_ints(1, ors=[[1], [-1]])).satisfiable

    def test_horn_minimal_all_zero(self):
        res = solve_horn_unit_prop(CNF.from_ints(2, ors=[[-1, -2]]))
        assert res.witness == (0, 0)

    def test_horn_rejects_non_horn(self):
        with pytest.raises(ValueError):
            solve_horn_unit_prop(CNF.from_ints(2, ors=[[1, 2]]))

    def test_xor_example(self):
        res = solve_xor_gauss(CNF.from_ints(2, xors=[[1, 2], [2]]))
        assert res.satisfiable and res.witness == (0, 1)

    def test_xor_unsat(self):
        cnf = CNF.from_ints(1, xors=[[1], [-1]])
        assert not solve_xor_gauss(cnf).satisfiable

    def test_xor_unit(self):
        res = solve_xor_gauss(CNF.from_ints(1, xors=[[1]]))
        assert res.witness == (1,)

    def test_xor_rejects_or(self):
        with pytest.raises(ValueError):
            solve_xor_gauss(CNF.from_ints(2, ors=[[1, 2]]))


class TestSolverAgreement:
    """Each fragment solver must match brute force, and witnesses verify."""

    def _check(self, cnf, res):
        models = brute_force_models(cnf)
        assert res.satisfiable == bool(models)
        if res.satisfiable:
            assert evaluate(cnf, res.witness)
            # minimality for Horn: the witness is the least model
            if res.method == "horn-unit-prop":
                least = models[0]
                for m in models:
                    least = tuple(min(a, b) for a, b in zip(least, m))
                assert res.witness == least

    def test_2sat_suite(self):
        rng = random.Random(101)
        for _ in range(150):
            cnf = random_2sat_cnf(rng, rng.randint(1, 12), rng.randint(1, 20))
            self._check(cnf, solve_2sat(cnf))

    def test_horn_suite(self):
        rng = random.Random(102)
        for _ in range(150):
            cnf = random_horn_cnf(rng, rng.randint(1, 12), rng.randint(1, 20))
            self._check(cnf, solve_horn_unit_prop(cnf))

    def test_xor_suite(self):
        rng = random.Random(103)
        for _ in range(150):
            cnf = random_xor_cnf(rng, rng.randint(1, 12), rng.randint(1, 20))
            self._check(cnf, solve_xor_gauss(cnf))
