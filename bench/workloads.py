"""Seeded workloads for the satmargin benchmark.

Each workload draws its whole instance set from the seed before anything is
timed, and never filters it by outcome.  ``run`` is the timed work: it calls
satmargin's public functions through their modules (``cnf.parse_dimacs``,
not a name bound at import time), so the traced run can wrap them.
``answer`` reduces an output to what ``check`` compares against an
independent reference; it runs outside the timed region.

The generators live here, not in the test suite, so the benchmark's inputs
do not move when the tests change.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from satmargin import chains, cnf, elimination, horn_lp, margin, reduction, simplex

FM_MAX_ROWS = 60
"""Row cap for the FM workload.  The cap is checked only after a whole
elimination step, so the overshooting step costs up to (cap/2)**2 pair
combinations.  At 60 a blow-up instance costs at most a few hundredths of a
second, where a 3000-row cap costs seconds, and about one instance in five
hits it; a lower ceiling on those costs is what keeps the tail from
swinging with the seed."""

FM_POINTS = 3  # sampled rational points per projection, besides the planted one


@dataclass
class Instance:
    id: int
    kind: str
    size: dict
    data: object


def _dimacs(num_vars: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, cl)) + " 0" for cl in clauses]
    return "\n".join(lines) + "\n"


def _satisfied(clauses: list[list[int]], assignment: dict[int, int]) -> bool:
    return all(any(assignment[abs(l)] == (l > 0) for l in cl) for cl in clauses)


# --------------------------------------------------------------------------
# horn_lp: planted-SAT Horn CNFs plus an unplanted minority
# --------------------------------------------------------------------------

def planted_horn(rng: random.Random, n: int):
    """2n Horn clauses satisfied by a hidden assignment with n//2 ones.

    Widths 1 to 4 come in equal shares and three clauses in four carry the
    single positive literal, so every instance of one n has the same shape
    and only the variable choice varies.  A clause the hidden assignment
    would violate is repaired by one substitution, never redrawn, so the
    drawing consumes the same randomness for every seed."""
    ones = set(rng.sample(range(1, n + 1), n // 2))
    zeros = [v for v in range(1, n + 1) if v not in ones]
    widths = [1 + k % 4 for k in range(2 * n)]
    rng.shuffle(widths)
    clauses = []
    for k, w in enumerate(widths):
        if k % 4 != 3:
            head = rng.randint(1, n)
            body = rng.sample([v for v in range(1, n + 1) if v != head], w - 1)
            if head not in ones and all(b in ones for b in body):
                if w == 1:
                    head = rng.choice(sorted(ones))
                else:
                    body[0] = rng.choice([z for z in zeros
                                          if z != head and z not in body])
            clauses.append([head] + [-b for b in body])
        else:
            body = rng.sample(range(1, n + 1), w)
            if all(b in ones for b in body):
                body[0] = rng.choice([z for z in zeros if z not in body])
            clauses.append([-b for b in body])
    hidden = {v: int(v in ones) for v in range(1, n + 1)}
    return clauses, hidden


def random_horn(rng: random.Random, n: int, n_clauses: int) -> list[list[int]]:
    """Unplanted Horn clauses: widths 1 to 4, and a positive first literal
    with probability 0.7 (the test suite's random Horn distribution)."""
    clauses = []
    for _ in range(n_clauses):
        chosen = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
        lits = [-v for v in chosen]
        if rng.random() < 0.7:
            lits[0] = -lits[0]
        clauses.append(lits)
    return clauses


class HornLP:
    name = "horn_lp"
    # Planted n in a fixed mix: mostly n=40, plus two n=80 instances
    # that carry more of the simplex work.  Solve time grows about as n**3
    # and varies by a fifth to a third between instances of one n, so on a
    # mix of many sizes the median and the tail sit on the edge between two
    # sizes and jump with the seed; here both fall inside the one large
    # group.  A planted n=120 instance took 0.5 to 0.9 s by seed, a fifth of
    # a pass, and moved instances_per_s with it, so the planted mix stops at
    # 80 and n=120 occurs only unplanted.  A pass costs about 2 s, so a run
    # holds a dozen passes or more: on a shared host each instance's fastest
    # pass is a steadier estimate the more passes it is taken over.  The unplanted minority uses n clauses (not 2n) so that both
    # SAT and UNSAT verdicts occur.
    PLANTED_MIX = {40: 44, 80: 2}
    UNPLANTED_N = (40, 80, 120)

    def make(self, seed: int) -> list[Instance]:
        rng = random.Random(f"horn_lp/{seed}")
        out = []
        for n in (n for n, count in self.PLANTED_MIX.items() for _ in range(count)):
            clauses, hidden = planted_horn(rng, n)
            out.append(Instance(len(out), "planted", {"n": n, "m": len(clauses)},
                                (_dimacs(n, clauses), clauses, hidden)))
        for n in self.UNPLANTED_N:
            clauses = random_horn(rng, n, n)
            out.append(Instance(len(out), "unplanted", {"n": n, "m": n},
                                (_dimacs(n, clauses), clauses, None)))
        rng.shuffle(out)
        for k, inst in enumerate(out):
            inst.id = k
        return out

    def run(self, inst: Instance):
        formula = cnf.parse_dimacs(inst.data[0])
        return formula, horn_lp.solve_horn_margin(formula)

    def answer(self, out):
        formula, report = out
        return formula, report.result.status, report.result.witness, \
            report.agreed_with_unit_prop

    def fingerprint(self, ans):
        return ans[1:]

    def check(self, inst: Instance, ans) -> str | None:
        formula, status, witness, agreed = ans
        _, clauses, hidden = inst.data
        ref = cnf.solve_horn_unit_prop(formula)
        if (status, witness) != (ref.status, ref.witness):
            return f"verdict {status} {witness} != unit propagation {ref.status}"
        if not agreed:
            return "report says it disagrees with unit propagation"
        if status == "SAT" and not _satisfied(
                clauses, {v: witness[v - 1] for v in range(1, len(witness) + 1)}):
            return "witness violates a clause"
        if hidden is not None:
            if not _satisfied(clauses, hidden):
                return "generator bug: hidden assignment violates a clause"
            if status != "SAT":
                return "planted instance rejected"
        return None

    def cli(self, inst: Instance, ans, path):
        with open(path, "w") as fh:
            fh.write(inst.data[0])
        _, status, witness, _ = ans
        if status == "SAT":
            lits = [v if val else -v for v, val in enumerate(witness, start=1)]
            expected = "accept\nv " + " ".join(map(str, lits)) + " 0\n"
        else:
            expected = "reject\n"
        return ["solve-horn", path], lambda code, text: code == 0 and text == expected


# --------------------------------------------------------------------------
# fm_random: FM projection of random boxed systems onto two variables
# --------------------------------------------------------------------------

def _random_row(rng: random.Random, n: int) -> dict[int, int]:
    support = rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))
    return {v: rng.choice([-3, -2, -1, 1, 2, 3]) for v in support}


def random_system(rng: random.Random, n: int, n_rows: int):
    """The test suite's random boxed system: small integer coefficients and
    bounds with denominators 1 or 2.  At n >= 6 almost all are infeasible."""
    rows = []
    for _ in range(n_rows):
        coeffs = _random_row(rng, n)
        lo = Fraction(rng.randint(-8, 4), rng.choice([1, 2]))
        hi = lo + Fraction(rng.randint(0, 10), rng.choice([1, 2]))
        rows.append(reduction.BoundedInequality(coeffs, lo, hi))
    return reduction.InequalitySystem(n, rows, box=True), None


def planted_system(rng: random.Random, n: int, n_rows: int):
    """Same row shapes, but every row's bounds straddle its value at a hidden
    point of the box with coordinates in eighths, so the system is feasible."""
    point = tuple(Fraction(rng.randint(0, 8), 8) for _ in range(n))
    rows = []
    for _ in range(n_rows):
        coeffs = _random_row(rng, n)
        val = sum(c * point[v - 1] for v, c in coeffs.items())
        lo = val - Fraction(rng.randint(0, 4), rng.choice([1, 2]))
        hi = val + Fraction(rng.randint(0, 4), rng.choice([1, 2]))
        rows.append(reduction.BoundedInequality(coeffs, lo, hi))
    return reduction.InequalitySystem(n, rows, box=True), point


class FMRandom:
    name = "fm_random"
    # (n, rows per variable, generator) shapes, each drawn REPEAT times;
    # the lp_redundancy minority stays at n=6 with n rows because it costs
    # one cold tableau per surviving row per step, and is planted only: on
    # the random systems its cost has a tail of up to ten times the median,
    # and the benchmark's tail, ten instances from the top, landed on the
    # sparse top of that group and moved by a quarter with the seed.  The
    # planted ones mostly stay below the instances that hit the row cap,
    # whose cost is bounded by the cap and piles up.  A pass costs about
    # 2.5 s, so a run holds a dozen passes: on a shared host the fastest
    # pass of an instance of a few milliseconds keeps falling with more
    # passes.
    SHAPES = [(n, ratio, kind) for n in range(6, 11) for ratio in (1.0, 1.25, 1.5)
              for kind in ("planted", "random")]
    LP_SHAPES = [(6, 1.0, "planted")]
    REPEAT = 18
    LP_REPEAT = 48

    def make(self, seed: int) -> list[Instance]:
        rng = random.Random(f"fm_random/{seed}")
        plan = [(s, False) for s in self.SHAPES for _ in range(self.REPEAT)]
        plan += [(s, True) for s in self.LP_SHAPES for _ in range(self.LP_REPEAT)]
        rng.shuffle(plan)
        out = []
        for (n, ratio, kind), lp in plan:
            gen = planted_system if kind == "planted" else random_system
            system, point = gen(rng, n, round(ratio * n))
            keep = tuple(sorted(rng.sample(range(1, n + 1), 2)))
            samples = [tuple(Fraction(rng.randint(-2, 10), 8) for _ in keep)
                       for _ in range(FM_POINTS)]
            size = {"n": n, "rows": len(system.rows), "lp_redundancy": lp}
            out.append(Instance(len(out), kind, size,
                                (system, keep, lp, point, samples)))
        return out

    def run(self, inst: Instance):
        system, keep, lp, _, _ = inst.data
        return elimination.fm_project(system, set(keep), order="greedy",
                                      max_rows=FM_MAX_ROWS, lp_redundancy=lp)

    def answer(self, out):
        return out[0]

    def fingerprint(self, ans):
        return reduction.format_system(ans)

    def check(self, inst: Instance, projected) -> str | None:
        system, keep, _, point, samples = inst.data
        n = system.num_vars
        feasible = simplex.ExactSimplex(system).feasible()
        if point is not None and not (feasible and reduction.satisfies(system, point)):
            return "generator bug: planted point violates the system"
        if simplex.ExactSimplex(projected).feasible() != feasible:
            return f"projection empty={not feasible} disagrees with the system"
        points = list(samples)
        if point is not None:
            points.append(tuple(point[v - 1] for v in keep))
        for coords in points:
            fixed = dict(zip(keep, coords))
            padded = tuple(fixed.get(v, Fraction(0)) for v in range(1, n + 1))
            member = reduction.satisfies(projected, padded)
            extends = simplex.ExactSimplex(
                reduction.fix_variables(system, fixed)).feasible()
            if member != extends:
                return f"point {coords}: member={member} but extension LP={extends}"
        return None

    def cli(self, inst: Instance, ans, path):
        """``eliminate`` reads a CNF, so the CLI call projects a small
        seeded 3-CNF of its own, compared with the library's projection."""
        rng = random.Random(f"fm_random/cli/{inst.id}")
        n = 8
        clauses = []
        for _ in range(n):
            chosen = rng.sample(range(1, n + 1), rng.randint(1, 3))
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
        text = _dimacs(n, clauses)
        with open(path, "w") as fh:
            fh.write(text)
        keep = (1, 2)
        try:
            projected, _ = elimination.fm_project(
                reduction.cnf_to_system(cnf.parse_dimacs(text)), set(keep),
                max_rows=FM_MAX_ROWS)
            expected = (0, reduction.format_system(projected))
        except elimination.RowBlowupError:
            expected = (1, "")
        argv = ["--max-rows", str(FM_MAX_ROWS), "eliminate", path,
                "--keep", ",".join(map(str, keep))]
        return argv, lambda code, text: (code, text) == expected


# --------------------------------------------------------------------------
# chain_margin: coupled chain families, full-system decision margins
# --------------------------------------------------------------------------

FRAGMENTS = ("3sat", "horn-coupler", "2sat", "horn-dominant")
E_GRID = (4, 8, 12, 16, 20, 24)
C_GRID = (3, 6, 9)
MAX_CHAIN_VARS = 80
"""c is lowered until (c+1)*e fits under this, and (e, c) pairs that become
equal are kept once, so the largest families (n about 80) cost under a
tenth of a second and a pass is short enough for a run to hold a dozen."""
CHAIN_SIZES = sorted({(e, min(c, MAX_CHAIN_VARS // e - 1))
                      for e, c in itertools.product(E_GRID, C_GRID)})


def _d_range(fragment: str, c: int) -> tuple[int, int]:
    if fragment == "2sat":
        return 2, 2              # width-2 chains hold one extra candidate
    if fragment == "3sat":
        return 2, min(10, c + 1)  # the last chain has c+3 slots
    return 2, 10


class ChainMargin:
    name = "chain_margin"

    def make(self, seed: int) -> list[Instance]:
        """A fixed grid: every fragment crossed with every (e, c) pair, with
        d stepping through its range, so the family sizes and the number of
        decision lines, 2**(d-1), are the same for every seed; the seed
        draws the insertion placement.  With d drawn from the seed the
        median instance moved by a fifth between seeds."""
        rng = random.Random(f"chain_margin/{seed}")
        out = []
        for k, (fragment, (e, c)) in enumerate(
                itertools.product(FRAGMENTS, CHAIN_SIZES)):
            lo, hi = _d_range(fragment, c)
            d = lo + k % (hi - lo + 1)
            b = 1 if fragment == "2sat" else 2
            placement = rng.randrange(1 << 30)
            out.append(Instance(len(out), fragment,
                                {"e": e, "c": c, "d": d, "b": b},
                                (fragment, e, c, d, b, placement)))
        rng.shuffle(out)
        for k, inst in enumerate(out):
            inst.id = k
        return out

    def run(self, inst: Instance):
        fragment, e, c, d, b, placement = inst.data
        family = chains.synthesize_fragment_family(fragment, e=e, c=c, b=b, d=d,
                                                   seed=placement)
        system = reduction.cnf_to_system(family.cnf)
        report = margin.decision_margin(
            system, family.dominant_var, 1 - family.expected_dominant_value,
            set(family.candidate_vars))
        agg = elimination.chain_aggregate(family)
        numbers = elimination.number_system_report(family, agg)
        return family, report, numbers

    def answer(self, out):
        family, report, numbers = out
        return family.spec, report.margin, report.per_line, numbers.reconstruction_ok

    def fingerprint(self, ans):
        _, value, per_line, ok = ans
        return value, tuple(sorted((repr(k), v) for k, v in per_line.items())), ok

    def check(self, inst: Instance, ans) -> str | None:
        fragment, e = inst.data[:2]
        _, value, _, ok = ans
        if not ok:
            return "aggregate coefficients do not read as base-b digits"
        if fragment in ("3sat", "horn-coupler"):
            expected = Fraction(1, 2 ** e - 1)  # b = 2
            if value != expected:
                return f"margin {value} != {expected}"
        elif fragment == "horn-dominant":
            if value != 1:
                return f"margin {value} != 1"
        elif value is None or value < Fraction(1, 2):
            return f"2-SAT margin {value} < 1/2"
        return None

    def cli(self, inst: Instance, ans, path):
        spec = ans[0]
        config = {"e": spec.e, "b": spec.b, "c": spec.c, "d": spec.d,
                  "digits": [list(r) for r in spec.digits],
                  "coupler_value": spec.coupler_value, "fragment": spec.fragment,
                  "seed": inst.data[5]}
        with open(path, "w") as fh:
            json.dump(config, fh)
        _, value, per_line, _ = ans
        expected_lines = set()
        for line, interval in per_line.items():
            fixed = " ".join(f"x{v}={val}" for v, val in line.fixed_coords)
            lo, hi = ("EMPTY", "EMPTY") if interval is None else map(str, interval)
            expected_lines.add((fixed, lo, hi))

        def ok(code, text):
            rows = list(csv.reader(io.StringIO(text)))[1:]
            lines = {tuple(r[1:4]) for r in rows if r[0] == "line"}
            margins = [r[4] for r in rows if r[0] == "margin"]
            return code == 0 and lines == expected_lines and margins == [str(value)]
        return ["margin", "--config", path, "--full"], ok


WORKLOADS = {w.name: w for w in (HornLP(), FMRandom(), ChainMargin())}
