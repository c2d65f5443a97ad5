"""CNF-to-inequality reduction and bounded integer-linear systems.

An OR clause with p positive and n negative literals becomes the two-sided
row  -n+1 <= sum(pos vars) - sum(neg vars) <= p;  a whole CNF becomes one
row per clause plus the implicit 0/1 box on every variable.  Bounds are kept
as exact rationals because elimination and normalization downstream produce
rational bounds even though clause rows start integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import or_

from .cnf import (CNF, Clause, OR, BruteForceCapError, BRUTE_FORCE_CAP,
                  low_columns, sliced_points)

RationalPoint = tuple  # tuple of Fraction, length num_vars


@dataclass
class BoundedInequality:
    """lower <= sum(coeffs[v] * x_v) <= upper, sparse integer coefficients.

    Zero coefficients are dropped on construction.  FM-derived rows may
    carry lower > upper: that is the empty (infeasible) constraint and
    ``satisfies`` treats it as such.
    """
    coeffs: dict[int, int]
    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        self.coeffs = {v: int(c) for v, c in self.coeffs.items() if c != 0}
        self.lower = Fraction(self.lower)
        self.upper = Fraction(self.upper)

    def value_at(self, point) -> Fraction:
        return sum(point[v - 1] * c for v, c in self.coeffs.items())

    def holds_at(self, point) -> bool:
        val = self.value_at(point)
        return self.lower <= val <= self.upper

    def key(self) -> tuple:
        return tuple(sorted(self.coeffs.items()))

    def __repr__(self):
        return f"{{{self.lower} <= {format_terms(self.coeffs)} <= {self.upper}}}"


@dataclass
class InequalitySystem:
    num_vars: int
    rows: list[BoundedInequality] = field(default_factory=list)
    box: bool = True  # 0 <= x_i <= 1 on every variable; False is rejected

    def __post_init__(self):
        if not self.box:
            raise ValueError("every system lies in the 0/1 box")
        for row in self.rows:
            for v in row.coeffs:
                if not 1 <= v <= self.num_vars:
                    raise ValueError(f"row references x{v} outside 1..{self.num_vars}")


def clause_to_inequality(clause: Clause) -> BoundedInequality:
    """Convert a normalized OR clause to its two-sided row: coefficient +1
    per positive literal, -1 per negative, bounds (1-n, p)."""
    if clause.kind != OR:
        raise ValueError("only OR clauses reduce to a single bounded row")
    coeffs: dict[int, int] = {}
    for lit in clause.literals:
        if lit.var in coeffs:
            raise ValueError(f"clause not normalized: x{lit.var} appears twice")
        coeffs[lit.var] = -1 if lit.negated else 1
    p = clause.positive_count()
    n = clause.negative_count()
    return BoundedInequality(coeffs, 1 - n, p)


def cnf_to_system(cnf: CNF) -> InequalitySystem:
    """One row per clause, in clause order, plus the 0/1 box."""
    rows = [clause_to_inequality(cl) for cl in cnf.clauses]
    return InequalitySystem(cnf.num_vars, rows)


def satisfies(system: InequalitySystem, point) -> bool:
    """Exact membership test for a rational point."""
    if len(point) != system.num_vars:
        raise ValueError(
            f"point has {len(point)} coords, system has {system.num_vars} vars")
    if any(not (0 <= x <= 1) for x in point):
        return False
    return all(row.holds_at(point) for row in system.rows)


def integral_points(system: InequalitySystem,
                    cap: int = BRUTE_FORCE_CAP) -> list[tuple[int, ...]]:
    """All 0/1 points satisfying the system, in lexicographic order."""
    n = system.num_vars
    if n > cap:
        raise BruteForceCapError(f"{n} variables exceeds enumeration cap {cap}")
    # Integer thresholds: an integer value v is in [lower, upper] iff
    # ceil(lower) <= v <= floor(upper).
    los = [math.ceil(row.lower) for row in system.rows]
    his = [math.floor(row.upper) for row in system.rows]
    if any(lo > hi for lo, hi in zip(los, his)):
        return []
    low, full, cols = low_columns(n)
    # Each row splits into its terms above L (variable v sits on bit n - v),
    # constant within a chunk, and the chunk bitsets of its low terms' sums,
    # built by branching on one low variable at a time.
    splits = []
    for row, lo, hi in zip(system.rows, los, his):
        high_terms = []
        sums = {0: full}  # low partial sum -> the chunk points that reach it
        for v, c in row.coeffs.items():
            p = n - v
            if p >= low:
                high_terms.append((p - low, c))
                continue
            branched: dict[int, int] = {}
            for total, points in sums.items():
                for key, part in ((total, points & ~cols[p]),
                                  (total + c, points & cols[p])):
                    if part:
                        branched[key] = branched.get(key, 0) | part
            sums = branched
        splits.append((high_terms, sums, lo, hi, {}))

    def accept(high: int) -> int:
        ok = full
        for high_terms, sums, lo, hi, memo in splits:
            shift = sum(c for p, c in high_terms if high >> p & 1)
            if shift not in memo:  # many chunks share a high-part sum
                memo[shift] = reduce(or_, (points for total, points in sums.items()
                                           if lo <= total + shift <= hi), 0)
            ok &= memo[shift]
        return ok

    return sliced_points(n, accept)


def fix_variables(system: InequalitySystem,
                  fixed: dict[int, Fraction]) -> InequalitySystem:
    """Substitute exact values for some variables.

    The result keeps the original variable numbering (fixed variables just
    no longer appear in any row).  A substitution that violates a row, or a
    fixed value outside the box, surfaces as the empty constant row
    0 in [1, 0], which every point fails.
    """
    infeasible = BoundedInequality({}, 1, 0)
    if any(not (0 <= val <= 1) for val in fixed.values()):
        return InequalitySystem(system.num_vars, [infeasible])
    rows: list[BoundedInequality] = []
    for row in system.rows:
        shift = 0
        coeffs = {}
        for v, c in row.coeffs.items():
            if v in fixed:
                shift += c * fixed[v]
            else:
                coeffs[v] = c
        lower = row.lower - shift
        upper = row.upper - shift
        if not coeffs:
            if lower > 0 or upper < 0:
                rows.append(infeasible)
            continue
        rows.append(BoundedInequality(coeffs, lower, upper))
    return InequalitySystem(system.num_vars, rows)


def format_terms(coeffs: dict[int, int]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for v in sorted(coeffs):
        c = coeffs[v]
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        term = f"x{v}" if mag == 1 else f"{mag}*x{v}"
        parts.append(f"{sign} {term}" if parts else f"{sign}{term}")
    return " ".join(parts)


def format_system(system: InequalitySystem, include_box: bool = False) -> str:
    """Debug text format: one row per line ``<lower> <= ... <= <upper>``,
    exact rationals printed as p/q.  The 0/1 box stays implicit unless
    ``include_box`` adds a trailer line."""
    lines = [f"{row.lower} <= {format_terms(row.coeffs)} <= {row.upper}"
             for row in system.rows]
    if include_box:
        lines.append(f"box: 0 <= x_i <= 1 for i in 1..{system.num_vars}")
    return "\n".join(lines) + "\n"
