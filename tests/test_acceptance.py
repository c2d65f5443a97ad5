"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every expected value is exact (Fractions and ints, no tolerances).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from satmargin.cnf import (CNF, parse_dimacs, evaluate, brute_force_models,
                           dominant_variables, solve_2sat,
                           solve_horn_unit_prop, solve_xor_gauss)
from satmargin.chains import (CapacityError, CoupledFamilySpec, synthesize,
                              synthesize_fragment_family, verify_dominance)
from satmargin.cli import main as cli_main
from satmargin.elimination import chain_aggregate, fm_project, \
    number_system_report
from satmargin.horn_lp import solve_horn_margin
from satmargin.margin import DecisionLineId, decision_margin, margin_decay_sweep
from satmargin.reduction import (cnf_to_system, fix_variables, integral_points,
                                 satisfies)
from satmargin.simplex import ExactSimplex

from conftest import (EQ1_DIMACS, random_cnf, random_2sat_cnf,
                      random_horn_cnf, random_xor_cnf, random_system)


def report(number: int, label: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s / budget {budget:.0f}s): {label}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_eq3_reproduction(capsys, tmp_path):
    t0 = time.perf_counter()
    path = tmp_path / "eq1.cnf"
    path.write_text(EQ1_DIMACS)
    assert cli_main(["reduce", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:4] == [
        "-1 <= x1 - x2 - x4 <= 1",
        "0 <= x1 - x3 <= 1",
        "1 <= x2 + x3 <= 2",
        "0 <= -x2 + x4 <= 1",
    ]
    with capsys.disabled():
        report(1, "reduce reproduces the four rows exactly, in clause order",
               t0, 1.0)


def test_criterion_2_reduction_faithfulness(capsys):
    t0 = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(500):
        cnf = random_cnf(rng, rng.randint(1, 10), rng.randint(1, 40),
                         max_width=4)
        points = integral_points(cnf_to_system(cnf))
        models = brute_force_models(cnf)
        assert set(points) == set(models)
    with capsys.disabled():
        report(2, "500 random CNFs: integral points == brute-force models",
               t0, 30.0)


def test_criterion_3_oracle_agreement(capsys):
    t0 = time.perf_counter()
    rng = random.Random(3033)
    suites = [
        (random_2sat_cnf, solve_2sat),
        (random_horn_cnf, solve_horn_unit_prop),
        (random_xor_cnf, solve_xor_gauss),
    ]
    for gen, solver in suites:
        for _ in range(500):
            cnf = gen(rng, rng.randint(1, 12), rng.randint(1, 24))
            result = solver(cnf)
            models = brute_force_models(cnf)
            assert result.satisfiable == bool(models)
            if result.satisfiable:
                assert evaluate(cnf, result.witness)
    with capsys.disabled():
        report(3, "2-SAT/Horn/XOR solvers match brute force on 500 instances each",
               t0, 60.0)


def test_criterion_4_fm_exactness(capsys):
    t0 = time.perf_counter()
    rng = random.Random(4044)
    for _ in range(100):
        n = rng.randint(2, 8)
        system = random_system(rng, n, rng.randint(1, 12))
        keep = set(rng.sample(range(1, n + 1), rng.randint(1, max(1, n - 1))))
        projected, _ = fm_project(system, keep)
        for _ in range(200):
            point = {v: Fraction(rng.randint(-2, 10), 8) for v in keep}
            padded = tuple(point.get(v, Fraction(0)) for v in range(1, n + 1))
            member = satisfies(projected, padded)
            feasible = ExactSimplex(fix_variables(system, point)).feasible()
            assert member == feasible
    with capsys.disabled():
        report(4, "FM projection membership == extension-LP feasibility "
                  "(100 systems x 200 points)", t0, 120.0)


def test_criterion_5_number_system(capsys):
    t0 = time.perf_counter()
    c, d = 3, 2
    rejected = []
    checked = 0
    for b, e in itertools.product((2, 3, 4, 5), (1, 2, 3, 4)):
        row1 = tuple(1 for _ in range(e))          # all-ones: geometric growth
        row2 = tuple(1 if j == 0 else 0 for j in range(e))
        for coupler_value in (1, 0):
            spec = CoupledFamilySpec(e=e, b=b, c=c, d=d, digits=(row1, row2),
                                     coupler_value=coupler_value)
            try:
                inst = synthesize(spec)
            except CapacityError:
                # a coupler needs b distinct clauses; c+1 = 4 < b rules
                # these combos out, which the generator must report
                assert b == 5 and e >= 2
                rejected.append((b, e, coupler_value))
                continue
            agg = chain_aggregate(inst)
            rep = number_system_report(inst, agg)
            assert rep.reconstruction_ok, (b, e, coupler_value)
            x1 = inst.dominant_var
            assert rep.coefficients[x1] == sum(b ** (e - 1 - j) for j in range(e))
            if b >= 2:
                assert rep.coefficients[x1] == (b ** e - 1) // (b - 1)
            assert agg.b_min == 1, (b, e, coupler_value)
            checked += 1
    assert checked == 2 * (3 * 4 + 1)  # b in {2,3,4} x e in {1..4}, plus (5, 1)
    assert rejected == [(5, 2, 1), (5, 2, 0), (5, 3, 1), (5, 3, 0),
                        (5, 4, 1), (5, 4, 0)]
    with capsys.disabled():
        report(5, "aggregate coefficients read as base-b digits, b_min = 1 "
                  "for both coupler polarities; infeasible (b,e) combos rejected",
               t0, 60.0)


def test_criterion_6_margin_decay_dichotomy(capsys):
    t0 = time.perf_counter()
    # k-SAT branch: margins exactly 1, 1/3, 1/7, 1/15
    rows = margin_decay_sweep("3sat", [1, 2, 3, 4], b=2, c=3)
    margins = [r.margin for r in rows]
    assert margins == [Fraction(1), Fraction(1, 3), Fraction(1, 7),
                       Fraction(1, 15)]
    assert all(m2 < m1 for m1, m2 in zip(margins, margins[1:]))
    ratios = [m2 / m1 for m1, m2 in zip(margins, margins[1:])]
    assert all(abs(r - Fraction(1, 2)) <= Fraction(1, 6) for r in ratios)

    # 2-SAT branch: margins bounded below by 1/2 and every projected row
    # keeps coefficients within +-2 after gcd normalization
    rows2 = margin_decay_sweep("2sat", range(1, 7), b=1, c=1, d=2)
    for row in rows2:
        assert row.margin >= Fraction(1, 2)
        full = cnf_to_system(row.instance.cnf)
        projected, _ = fm_project(full, set(row.instance.candidate_vars))
        for r in projected.rows:
            assert all(abs(coef) <= 2 for coef in r.coeffs.values())

    # Horn dichotomy: coupler growth decays like 3-SAT, the positive
    # candidate stays at coefficient <= 1 with constant margin
    horn_grow = margin_decay_sweep("horn-coupler", [1, 2, 3, 4], b=2, c=3)
    assert [r.margin for r in horn_grow] == margins
    horn_flat = margin_decay_sweep("horn-dominant", [1, 2, 3, 4], b=2, c=3)
    assert all(r.a1 <= 1 for r in horn_flat)
    assert all(r.margin == Fraction(1) for r in horn_flat)
    with capsys.disabled():
        report(6, "margin decay: 3-SAT 1,1/3,1/7,1/15; 2-SAT >= 1/2 with "
                  "coefficients <= 2; Horn splits by candidate role", t0, 120.0)


def test_criterion_7_coeff_ratio_bound(capsys):
    t0 = time.perf_counter()
    combos = []
    for e, b, c in itertools.product((2, 3), (2, 3), (2, 3)):
        for row2_pos in (e - 1, 0):
            combos.append((e, b, c, row2_pos))
    combos = combos[:20]
    while len(combos) < 20:
        combos.append((4, 2, 3, 3))
    assert len(combos) == 20
    for e, b, c, row2_pos in combos:
        row1 = tuple(1 for _ in range(e))
        row2 = tuple(1 if j == row2_pos else 0 for j in range(e))
        inst = synthesize(CoupledFamilySpec(e=e, b=b, c=c, d=2,
                                            digits=(row1, row2)))
        agg = chain_aggregate(inst)
        x1, x2 = inst.candidate_vars
        a1 = agg.row.coeffs[x1]
        a2 = agg.row.coeffs.get(x2, 0)
        assert a2 != 0
        bound = Fraction(a2, a1)
        rep = decision_margin(cnf_to_system(inst.cnf), x1, 0, {x1, x2})
        assert rep.margin <= bound, (e, b, c, row2_pos)
        # fixing x2 = 1 must make the previously excluded point feasible
        line = DecisionLineId(x1, ((x2, 1),))
        interval = rep.per_line[line]
        assert interval is not None and interval[0] <= 0 <= interval[1]
    with capsys.disabled():
        report(7, "20 instances: margin <= a2/a1 exactly and the x2=1 line "
                  "contains the infeasible point", t0, 120.0)


def test_criterion_8_horn_lp_solver(capsys):
    t0 = time.perf_counter()
    rng = random.Random(8088)
    sat = unsat = 0
    for _ in range(1000):
        n = rng.randint(1, 25)
        cnf = random_horn_cnf(rng, n, rng.randint(1, min(80, 5 * n)))
        rep = solve_horn_margin(cnf)
        ref = solve_horn_unit_prop(cnf)
        assert rep.result.status == ref.status
        assert rep.agreed_with_unit_prop
        if rep.result.satisfiable:
            sat += 1
            assert rep.result.witness == ref.witness
            assert evaluate(cnf, rep.result.witness)
        else:
            unsat += 1
    assert sat >= 100 and unsat >= 100
    with capsys.disabled():
        report(8, f"LP-estimation Horn solver == unit propagation on 1000 "
                  f"instances ({sat} SAT / {unsat} UNSAT)", t0, 120.0)


def test_criterion_9_dominance_detection(capsys):
    t0 = time.perf_counter()
    instances = []
    for fragment in ("3sat", "2sat", "horn-coupler", "horn-dominant", "xor"):
        for e in (1, 2, 3):
            instances.append(synthesize_fragment_family(fragment, e=e, c=2))
    for e, b in ((2, 2), (2, 3), (3, 2)):
        row1 = tuple(1 for _ in range(e))
        row2 = tuple(1 if j == e - 1 else 0 for j in range(e))
        instances.append(synthesize(CoupledFamilySpec(e=e, b=b, c=2, d=2,
                                                      digits=(row1, row2))))
    for inst in instances:
        if inst.cnf.num_vars <= 20:
            assert verify_dominance(inst), inst.spec
    eq1 = parse_dimacs(EQ1_DIMACS)
    dom = dominant_variables(eq1)
    assert dom[1] == {1}
    assert all(dom[v] == {0, 1} for v in (2, 3, 4))
    with capsys.disabled():
        report(9, f"{len(instances)} synthesized instances confirm their "
                  f"dominant variable; x1 of the four-clause example maps to {{1}}",
               t0, 60.0)
