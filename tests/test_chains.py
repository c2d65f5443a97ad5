import random

import pytest

from satmargin import chains
from satmargin.cnf import (CNF, brute_force_models, classify,
                           TWO_SAT, HORN, XOR_TAG, general_k)
from satmargin.chains import (
    CapacityError, ChainSpec, CoupledFamilySpec, DominantBlockSpec,
    FragmentError, attach_dominant, capacity, chain_cnf,
    instance_to_dimacs, load_family_config, spec_from_dict,
    synthesize, synthesize_fragment_family, verify_dominance,
)
from satmargin.cnf import parse_dimacs


def drop_clause(cnf: CNF, idx: int) -> CNF:
    return CNF(cnf.num_vars,
               tuple(cl for i, cl in enumerate(cnf.clauses) if i != idx))


class TestMakeChain:
    def test_minimum_chain(self):
        cnf = chain_cnf(1)
        assert [cl.ints() for cl in cnf.clauses] == [(1,), (-1,)]
        assert brute_force_models(cnf) == []

    def test_c2_deletion(self):
        cnf = chain_cnf(2)
        assert [cl.ints() for cl in cnf.clauses] == [(1,), (-1, 2), (-2,)]
        assert brute_force_models(cnf) == []
        assert brute_force_models(drop_clause(cnf, 1))

    def test_unsat_and_deletion_up_to_ten(self):
        for c in range(1, 11):
            cnf = chain_cnf(c)
            assert len(cnf.clauses) == c + 1
            assert brute_force_models(cnf, cap=12) == []
            for idx in range(len(cnf.clauses)):
                assert brute_force_models(drop_clause(cnf, idx), cap=12)

    def test_negated_chain(self):
        cnf = chain_cnf(ChainSpec(2, negated=True))
        assert brute_force_models(cnf) == []


class TestAttachDominant:
    def test_positive_block(self):
        inst = attach_dominant(1, DominantBlockSpec(2, +1))
        assert [cl.ints() for cl in inst.cnf.clauses] == [(1, 2), (-1, 2)]
        assert verify_dominance(inst)
        assert inst.expected_dominant_value == 1

    def test_negative_block(self):
        inst = attach_dominant(1, DominantBlockSpec(2, -1))
        assert [cl.ints() for cl in inst.cnf.clauses] == [(1, -2), (-1, -2)]
        assert verify_dominance(inst)
        assert inst.expected_dominant_value == 0

    def test_mixed_signs_break_dominance(self):
        # inserting with both signs satisfies the chain whatever the value,
        # so such a block is not expressible; hand-building it shows why
        cnf = CNF.from_ints(2, ors=[[1, 2], [-1, -2]])
        models = brute_force_models(cnf)
        assert {m[1] for m in models} == {0, 1}

    def test_width_budget(self):
        with pytest.raises(CapacityError):
            attach_dominant(1, DominantBlockSpec(2, +1), width=1)

    def test_partial_insertion(self):
        inst = attach_dominant(3, DominantBlockSpec(2, +1))
        assert verify_dominance(inst)


class TestCapacity:
    def test_three_sat(self):
        assert capacity(5, 3) == 7

    def test_two_sat(self):
        assert capacity(5, 2) == 2

    def test_k4(self):
        assert capacity(1, 4) == 4


class TestSynthesize:
    def test_variable_count(self):
        spec = CoupledFamilySpec(e=2, b=2, c=3, d=2, digits=((1, 0), (0, 1)))
        inst = synthesize(spec)
        assert inst.cnf.num_vars == 3 * 2 + 1 + 2 == 9

    def test_e1_degenerates_to_attach(self):
        spec = CoupledFamilySpec(e=1, b=3, c=2, d=1, digits=((1,),))
        inst = synthesize(spec)
        assert inst.coupler_vars == []
        assert verify_dominance(inst)

    def test_lost_clause_raises(self, monkeypatch):
        # an explicit check, so it survives python -O unlike an assert
        from_ints = CNF.from_ints
        monkeypatch.setattr(chains.CNF, "from_ints", staticmethod(
            lambda *args, **kwargs: drop_clause(from_ints(*args, **kwargs), 0)))
        spec = CoupledFamilySpec(e=2, b=2, c=3, d=1, digits=((1, 1),))
        with pytest.raises(RuntimeError, match="clauses"):
            synthesize(spec)

    def test_coupler_multiplicities(self):
        spec = CoupledFamilySpec(e=3, b=2, c=3, d=1, digits=((1, 1, 1),))
        inst = synthesize(spec)
        assert inst.coupler_multiplicities() == [(1, 2), (1, 2)]

    def test_coupler_value_zero(self):
        spec = CoupledFamilySpec(e=2, b=2, c=2, d=1, digits=((1, 0),),
                                 coupler_value=0)
        inst = synthesize(spec)
        assert verify_dominance(inst)
        # reversed polarity: coupler negative once in chain 1, positive twice in chain 2
        y = inst.coupler_vars[0]
        signs = [lit.negated for cl in inst.cnf.clauses for lit in cl.literals
                 if lit.var == y]
        assert signs.count(True) == 1 and signs.count(False) == 2

    def test_dominance_verified_small(self):
        rng = random.Random(9)
        for _ in range(15):
            e = rng.randint(1, 3)
            c = rng.randint(1, 3)
            b = rng.randint(1, min(3, c + 1))
            digits = tuple(
                tuple(rng.randint(0, 1) for _ in range(e)) for _ in range(1))
            if not any(digits[0]):
                digits = ((1,) * e,)
            spec = CoupledFamilySpec(e=e, b=b, c=c, d=1, digits=digits)
            try:
                inst = synthesize(spec)
            except CapacityError:
                continue
            if inst.cnf.num_vars <= 14:
                assert verify_dominance(inst), spec

    def test_capacity_violation_slots(self):
        # middle chain must host 1 + b + A_j; with c=1 (2 clauses, 4 slots)
        # asking for b=4 exceeds the distinct-clause limit
        spec = CoupledFamilySpec(e=3, b=4, c=1, d=1, digits=((1, 0, 0),))
        with pytest.raises(CapacityError):
            synthesize(spec)

    def test_capacity_violation_width(self):
        # 3-sat middle chain: 1 + b + A_j insertions > (c+1)(k-2)+2 slots
        spec = CoupledFamilySpec(e=3, b=3, c=2, d=2,
                                 digits=((1, 1, 1), (0, 2, 0)))
        with pytest.raises(CapacityError):
            synthesize(spec)

    def test_coupler_needs_distinct_clauses(self):
        # b = 5 occurrences cannot fit a 4-clause chain even though the
        # slot count alone would allow it
        spec = CoupledFamilySpec(e=2, b=5, c=3, d=1, digits=((1, 0),))
        with pytest.raises(CapacityError):
            synthesize(spec)

    def test_seed_determinism(self):
        spec = CoupledFamilySpec(e=3, b=2, c=3, d=2,
                                 digits=((1, 1, 1), (0, 0, 1)))
        a = instance_to_dimacs(synthesize(spec, seed=5))
        b = instance_to_dimacs(synthesize(spec, seed=5))
        c = instance_to_dimacs(synthesize(spec, seed=6))
        assert a == b
        assert a != c  # different placement order

    def test_seeded_still_dominant(self):
        spec = CoupledFamilySpec(e=2, b=2, c=2, d=1, digits=((1, 1),))
        for seed in range(6):
            assert verify_dominance(synthesize(spec, seed=seed))

    def test_permutation_invariance(self):
        # shuffling clause order and renaming variables preserves
        # satisfiability (matrix row/column exchange)
        spec = CoupledFamilySpec(e=2, b=2, c=2, d=1, digits=((1, 1),))
        inst = synthesize(spec)
        rng = random.Random(3)
        clauses = list(inst.cnf.clauses)
        rng.shuffle(clauses)
        perm = list(range(1, inst.cnf.num_vars + 1))
        rng.shuffle(perm)
        renamed = [[(perm[abs(l) - 1] * (1 if l > 0 else -1))
                    for l in cl.ints()] for cl in clauses]
        shuffled = CNF.from_ints(inst.cnf.num_vars, ors=renamed)
        assert bool(brute_force_models(shuffled)) == \
            bool(brute_force_models(inst.cnf))


class TestFragments:
    def test_2sat_single_connections(self):
        inst = synthesize_fragment_family("2sat", e=3, c=2)
        assert TWO_SAT in classify(inst.cnf)
        assert all(m == (1, 1) for m in inst.coupler_multiplicities())
        assert verify_dominance(inst)

    def test_2sat_b_must_be_one(self):
        with pytest.raises(FragmentError):
            synthesize(CoupledFamilySpec(e=2, b=2, c=2, d=1,
                                         digits=((1, 0),), fragment="2sat"))

    def test_horn_coupler_legal(self):
        inst = synthesize_fragment_family("horn-coupler", e=2, c=2, b=3)
        assert HORN in classify(inst.cnf)
        assert inst.coupler_multiplicities() == [(1, 3)]
        assert verify_dominance(inst)
        from satmargin.cnf import solve_horn_unit_prop
        assert solve_horn_unit_prop(inst.cnf).satisfiable

    def test_horn_coupler_candidates_negative(self):
        inst = synthesize_fragment_family("horn-coupler", e=2, c=2, b=2)
        assert inst.expected_dominant_value == 0
        x = inst.dominant_var
        assert all(lit.negated for cl in inst.cnf.clauses
                   for lit in cl.literals if lit.var == x)

    def test_horn_dominant_single_connection(self):
        inst = synthesize_fragment_family("horn-dominant", e=3, c=2, b=2)
        assert HORN in classify(inst.cnf)
        x = inst.dominant_var
        occurrences = sum(1 for cl in inst.cnf.clauses if x in cl.vars())
        assert occurrences == 1
        assert verify_dominance(inst)

    def test_horn_dominant_rejects_multi(self):
        spec = CoupledFamilySpec(e=2, b=2, c=2, d=1, digits=((2, 0),),
                                 fragment="horn-dominant")
        with pytest.raises(FragmentError):
            synthesize(spec)

    def test_horn_dominant_positive_slot_taken(self):
        # chains 1..e-1 spend their positive slot on the coupler, so a
        # positive candidate cannot attach there
        spec = CoupledFamilySpec(e=2, b=2, c=2, d=1, digits=((1, 0),),
                                 fragment="horn-dominant")
        with pytest.raises(CapacityError):
            synthesize(spec)

    def test_xor_family(self):
        inst = synthesize_fragment_family("xor", e=3, c=2)
        assert classify(inst.cnf) == {XOR_TAG}
        assert verify_dominance(inst)
        from satmargin.cnf import solve_xor_gauss
        assert solve_xor_gauss(inst.cnf).satisfiable

    def test_xor_rejects_multiple_insertion(self):
        with pytest.raises(FragmentError):
            synthesize(CoupledFamilySpec(e=2, b=1, c=2, d=1,
                                         digits=((1, 1),), fragment="xor"))
        with pytest.raises(FragmentError):
            synthesize(CoupledFamilySpec(e=2, b=2, c=2, d=1,
                                         digits=((1, 0),), fragment="xor"))

    def test_fragment_tags_match(self):
        expectations = {
            "3sat": general_k(3), "2sat": TWO_SAT,
            "horn-coupler": HORN, "horn-dominant": HORN, "xor": XOR_TAG,
        }
        for fragment, tag in expectations.items():
            inst = synthesize_fragment_family(fragment, e=2, c=2, b=2)
            assert tag in classify(inst.cnf), fragment


class TestRoundTrip:
    def test_annotated_dimacs_parses(self):
        spec = CoupledFamilySpec(e=2, b=2, c=2, d=1, digits=((1, 1),))
        inst = synthesize(spec)
        text = instance_to_dimacs(inst)
        assert parse_dimacs(text) == inst.cnf
        assert "chain 1 clauses" in text and "dominant" in text

    def test_config_loading(self, tmp_path):
        cfg = tmp_path / "family.json"
        cfg.write_text('{"e": 2, "b": 2, "c": 2, "d": 1, '
                       '"digits": [[1, 1]], "seed": 3}')
        spec, seed = load_family_config(str(cfg))
        assert spec.e == 2 and seed == 3
        assert synthesize(spec, seed).cnf.num_vars == 6

    def test_spec_from_dict_missing(self):
        with pytest.raises(ValueError):
            spec_from_dict({"e": 2})
