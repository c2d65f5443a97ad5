"""Exact Fourier-Motzkin elimination with full traces, weighted chain
aggregation, and base-b digit recovery of aggregate coefficients.

All arithmetic is exact: integer coefficients, Fraction bounds, positive
rational combination multipliers.  No floating point is used anywhere in
this module; the whole point of the aggregate-coefficient analysis is that
the numbers grow beyond what floats can represent faithfully.

Working representation: one-sided rows  sum(coeffs[v] * x_v) >= bound.
A two-sided system row splits into its >= part and its negated <= part; the
0/1 box contributes the rows x_v >= 0 and -x_v >= -1 for the variable being
eliminated.  Combining a lower-bound row (positive coefficient on the pivot
variable) with an upper-bound row (negative coefficient) uses the smallest
positive integer multipliers that cancel the pivot, and the result is
normalized by the gcd of its coefficients.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd

from .chains import SynthesizedInstance
from .reduction import (BoundedInequality, InequalitySystem,
                        clause_to_inequality, format_terms)
from .simplex import ExactSimplex


class RowBlowupError(RuntimeError):
    """Intermediate row count exceeded the configured limit."""

    def __init__(self, limit: int, var: int, step: int):
        super().__init__(
            f"eliminating x{var} (step {step}) exceeded the row limit {limit}")
        self.limit = limit
        self.var = var
        self.step = step


class AggregationError(ValueError):
    """A variable that should cancel in the weighted clause sum did not."""


@dataclass(frozen=True)
class Combination:
    lower_id: int
    upper_id: int
    mult_lower: Fraction
    mult_upper: Fraction
    new_id: int


@dataclass
class EliminationStep:
    var: int
    combinations: list[Combination] = field(default_factory=list)


@dataclass
class EliminationTrace:
    # every one-sided row ever seen: id -> (coeffs, bound) meaning sum >= bound
    rows: dict[int, tuple[dict[int, int], Fraction]] = field(default_factory=dict)
    steps: list[EliminationStep] = field(default_factory=list)
    final_system: InequalitySystem | None = None

    def to_text(self) -> str:
        """Line-oriented export: definitions for source/box rows, then one
        ``step`` line per combination."""
        lines = []
        derived = {c.new_id for s in self.steps for c in s.combinations}
        for rid in sorted(self.rows):
            if rid in derived:
                continue
            coeffs, bound = self.rows[rid]
            lines.append(f"row{rid} := {format_terms(coeffs)} >= {bound}")
        for step in self.steps:
            for c in step.combinations:
                lines.append(
                    f"step x{step.var}: row{c.lower_id} * {c.mult_lower} + "
                    f"row{c.upper_id} * {c.mult_upper} -> row{c.new_id}")
        return "\n".join(lines) + "\n"


class _Workspace:
    """One-sided row set with id bookkeeping for a projection run."""

    def __init__(self, system: InequalitySystem, max_rows: int):
        self.num_vars = system.num_vars
        self.max_rows = max_rows
        self.trace = EliminationTrace()
        self._next_id = 0
        self.rows: dict[int, tuple[dict[int, int], Fraction]] = {}
        for row in system.rows:
            for coeffs, bound in ((dict(row.coeffs), row.lower),
                                  ({v: -c for v, c in row.coeffs.items()},
                                   -row.upper)):
                self.rows[self._new_id(coeffs, bound)] = (coeffs, bound)

    def _new_id(self, coeffs, bound) -> int:
        rid = self._next_id
        self._next_id += 1
        self.trace.rows[rid] = (coeffs, bound)
        return rid

    def eliminate(self, var: int, step_index: int) -> EliminationStep:
        step = EliminationStep(var)
        lowers = []   # (rid, coeffs, bound) with a positive coefficient on var
        uppers = []   # ... and with a negative one
        # rows without var: the tightest per coefficient vector, first among equals
        merged: dict[tuple, tuple[dict, Fraction, int]] = {}
        for rid, (coeffs, bound) in self.rows.items():
            cv = coeffs.get(var, 0)
            if cv:
                (lowers if cv > 0 else uppers).append((rid, coeffs, bound))
                continue
            k = tuple(sorted(coeffs.items()))
            cur = merged.get(k)
            if cur is None or bound > cur[1]:
                merged[k] = (coeffs, bound, rid)
        if not (lowers or uppers):
            self.trace.steps.append(step)
            return step
        # the box contributes x_var >= 0 and -x_var >= -1
        for side, coeffs, bound in ((lowers, {var: 1}, Fraction(0)),
                                    (uppers, {var: -1}, Fraction(-1))):
            side.append((self._new_id(coeffs, bound), coeffs, bound))

        for lo_id, lo_coeffs, lo_bound in lowers:
            a = lo_coeffs[var]
            for hi_id, hi_coeffs, hi_bound in uppers:
                b = -hi_coeffs[var]
                g0 = gcd(a, b)
                m_lo, m_hi = b // g0, a // g0
                coeffs: dict[int, int] = {}
                for v, c in lo_coeffs.items():
                    coeffs[v] = coeffs.get(v, 0) + m_lo * c
                for v, c in hi_coeffs.items():
                    coeffs[v] = coeffs.get(v, 0) + m_hi * c
                coeffs = {v: c for v, c in coeffs.items() if c != 0}
                if var in coeffs:
                    raise RuntimeError(
                        f"FM invariant broken: x{var} survived its own elimination")
                bound = m_lo * lo_bound + m_hi * hi_bound
                mult_lo, mult_hi = Fraction(m_lo), Fraction(m_hi)
                if coeffs:
                    g = gcd(*coeffs.values())
                    if g > 1:
                        coeffs = {v: c // g for v, c in coeffs.items()}
                        bound = bound / g
                        mult_lo /= g
                        mult_hi /= g
                    # rows the box alone implies are dropped on the spot
                    box_min = sum(c for c in coeffs.values() if c < 0)
                    if bound <= box_min:
                        continue
                else:
                    if bound <= 0:
                        continue  # 0 >= nonpositive: trivially true
                k = tuple(sorted(coeffs.items()))
                cur = merged.get(k)
                if cur is not None and cur[1] >= bound:
                    continue
                rid = self._new_id(coeffs, bound)
                step.combinations.append(
                    Combination(lo_id, hi_id, mult_lo, mult_hi, rid))
                merged[k] = (coeffs, bound, rid)
                # merged only grows, so the step's error is certain already
                if len(merged) > self.max_rows:
                    raise RowBlowupError(self.max_rows, var, step_index)

        self.rows = {rid: (coeffs, bound) for coeffs, bound, rid in merged.values()}
        if len(self.rows) > self.max_rows:  # the kept rows alone
            raise RowBlowupError(self.max_rows, var, step_index)
        self.trace.steps.append(step)
        return step

    def lp_prune(self):
        """Drop every row the remaining rows (plus box) already imply.

        One exact LP per row, so this is opt-in.  A row whose removal makes
        the rest infeasible is conservatively kept (the certificate must
        survive)."""
        for rid in sorted(self.rows):
            coeffs, bound = self.rows[rid]
            others = [self.rows[r] for r in self.rows if r != rid]
            system = rows_to_system(self.num_vars, others)
            tab = ExactSimplex(system)
            if not tab.feasible():
                continue
            if tab.minimize({v: Fraction(c) for v, c in coeffs.items()}) >= bound:
                del self.rows[rid]

    def to_system(self) -> InequalitySystem:
        return rows_to_system(self.num_vars, list(self.rows.values()))


def rows_to_system(num_vars: int,
                   rows: list[tuple[dict[int, int], Fraction]]) -> InequalitySystem:
    """Merge one-sided >= rows back into two-sided rows.  A missing side is
    completed with the bound the 0/1 box implies; a positive constant row
    with empty support becomes the infeasibility certificate [bound, 0]."""
    bounds: dict[tuple, list] = {}  # sign-normalised key -> [lower, upper]
    for coeffs, bound in rows:
        items = tuple(sorted(coeffs.items()))
        if items and items[0][1] < 0:  # -key >= bound reads key <= -bound
            pair = bounds.setdefault(tuple((v, -c) for v, c in items), [None, None])
            pair[1] = -bound if pair[1] is None else min(pair[1], -bound)
        elif items or bound > 0:  # 0 >= a nonpositive bound always holds
            pair = bounds.setdefault(items, [None, None])
            pair[0] = bound if pair[0] is None else max(pair[0], bound)
    out = []
    for key, (lower, upper) in bounds.items():
        coeffs = dict(key)
        if lower is None:
            lower = sum(c for c in coeffs.values() if c < 0)
        if upper is None:
            upper = sum(c for c in coeffs.values() if c > 0)
        out.append(BoundedInequality(coeffs, lower, upper))
    out.sort(key=lambda r: r.key())
    return InequalitySystem(num_vars, out)


def fm_project(system: InequalitySystem, keep, order: str = "greedy",
               max_rows: int = 100_000,
               lp_redundancy: bool = False) -> tuple[InequalitySystem, EliminationTrace]:
    """Project a system onto the kept variables.

    ``order`` picks the elimination sequence: "given" eliminates in
    ascending variable index, "greedy" picks the variable minimizing the
    product of lower-bound and upper-bound row counts at each step.
    ``lp_redundancy`` switches on full LP-based redundancy elimination after
    every step (exact duplicates and single-row dominations are always
    dropped; the LP pass costs one solve per surviving row).
    The rational solution set of the result, inside the kept variables' 0/1
    box that every system carries, is exactly the projection of the input's.
    """
    keep = set(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    for v in keep:
        if not 1 <= v <= system.num_vars:
            raise ValueError(f"keep variable x{v} out of range")
    remaining = [v for v in range(1, system.num_vars + 1) if v not in keep]
    if not remaining:
        trace = EliminationTrace(final_system=system)
        return system, trace
    ws = _Workspace(system, max_rows)
    step_index = 0
    while remaining:
        if order == "given":
            var = remaining.pop(0)
        elif order == "greedy":
            lo, hi = Counter(), Counter()  # rows bounding v from below/above
            for coeffs, _ in ws.rows.values():
                for v, c in coeffs.items():
                    (lo if c > 0 else hi)[v] += 1
            # absent variables cost -1 and go first; ties break on the index
            var = min(remaining, key=lambda v: (
                (lo[v] + 1) * (hi[v] + 1) if v in lo or v in hi else -1, v))
            remaining.remove(var)
        else:
            raise ValueError(f"unknown order policy {order!r}")
        ws.eliminate(var, step_index)
        if lp_redundancy:
            ws.lp_prune()
        step_index += 1
    projected = ws.to_system()
    ws.trace.final_system = projected
    return projected, ws.trace


def integral_tighten(system: InequalitySystem) -> InequalitySystem:
    """Round each row's bounds toward the integers the integer coefficients
    force: after dividing by the gcd, an integral point's row value is an
    integer, so lower rounds up and upper rounds down.

    Valid over 0/1 (integral) points only; the rational relaxation shrinks.
    Never applied implicitly anywhere in this package.
    """
    out = []
    for row in system.rows:
        if not row.coeffs:
            out.append(BoundedInequality({}, row.lower, row.upper))
            continue
        g = gcd(*row.coeffs.values())
        coeffs = {v: c // g for v, c in row.coeffs.items()}
        out.append(BoundedInequality(
            coeffs, ceil(row.lower / g), floor(row.upper / g)))
    return InequalitySystem(system.num_vars, out)


# ---------------------------------------------------------------------------
# weighted chain aggregation and the base-b digit structure
# ---------------------------------------------------------------------------

@dataclass
class AggregateInequality:
    row: BoundedInequality            # candidate variables only
    b_min: int
    b_max: int
    multipliers: list[int]            # n_1 .. n_{2(e-1)}
    chain_weights: list[int]          # weight applied to each chain's rows


@dataclass
class NumberSystemReport:
    basis: int
    exponent: int
    digits: dict[int, tuple[int, ...]]  # candidate var -> digit row
    coefficients: dict[int, int]        # candidate var -> aggregate coefficient
    reconstruction_ok: bool


def chain_weights(multipliers: list[int]) -> list[int]:
    """Per-chain weights from coupler multiplicities n_1..n_{2(e-1)}:
    chain j is scaled by prod(odd multipliers before it) * prod(even
    multipliers from its own coupler on), which cancels every coupler."""
    e = len(multipliers) // 2 + 1
    weights = []
    for j in range(1, e + 1):
        w = 1
        for l in range(1, j):
            w *= multipliers[2 * l - 2]       # n_{2l-1}
        for l in range(j, e):
            w *= multipliers[2 * l - 1]       # n_{2l}
        weights.append(w)
    return weights


def chain_aggregate(inst: SynthesizedInstance,
                    multipliers: list[int] | None = None) -> AggregateInequality:
    """Weighted sum of all clause rows of a synthesized instance.

    Chain j's rows are scaled by the coupler-cancelling weight and added;
    everything except the candidate variables must cancel exactly.  The
    default multipliers are read off the instance (coupler j appears
    n_{2j-1} times in chain j and n_{2j} times in chain j+1, which is
    (1, b) for generator output).
    """
    if any(cl.kind != "or" for cl in inst.cnf.clauses):
        raise ValueError("aggregation needs OR clauses (no inequality form for XOR)")
    if multipliers is None:
        multipliers = []
        for m_left, m_right in inst.coupler_multiplicities():
            multipliers.extend((m_left, m_right))
    e = len(inst.chain_rows)
    if len(multipliers) != 2 * (e - 1):
        raise ValueError(f"need {2 * (e - 1)} multipliers, got {len(multipliers)}")
    if any(m < 1 for m in multipliers):
        raise ValueError("multipliers must be positive")
    weights = chain_weights(multipliers)
    coeffs: dict[int, int] = {}
    lo = hi = 0
    for j in range(1, e + 1):
        w = weights[j - 1]
        for ci in inst.chain_rows[j]:
            row = clause_to_inequality(inst.cnf.clauses[ci])
            for v, c in row.coeffs.items():
                coeffs[v] = coeffs.get(v, 0) + w * c
            lo += w * int(row.lower)
            hi += w * int(row.upper)
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    stray = [v for v in coeffs if v not in inst.candidate_vars]
    if stray:
        raise AggregationError(
            f"non-candidate variables survived the weighted sum: "
            f"{sorted(stray)} (weights {weights})")
    row = BoundedInequality(coeffs, lo, hi)
    return AggregateInequality(row, lo, hi, list(multipliers), weights)


def decompose_base_b(value: int, b: int, e: int) -> list[int]:
    """Canonical e-digit base-b expansion (most significant first).

    For b >= 2 this is the unique expansion and requires 0 <= value < b**e;
    for b == 1 the representation degenerates to a single bucket holding the
    whole value.
    """
    if b < 1 or e < 1:
        raise ValueError("need b >= 1 and e >= 1")
    if value < 0:
        raise ValueError("value must be nonnegative")
    if b == 1:
        return [value]
    if value >= b ** e:
        raise ValueError(f"{value} is not representable in {e} base-{b} digits")
    digits = []
    rest = value
    for j in range(e - 1, -1, -1):
        digit, rest = divmod(rest, b ** j)
        digits.append(digit)
    return digits


def digits_match(value: int, b: int, digit_row) -> bool:
    """Does value equal sum(a_j * b**(e-j)) for the given digit row?  Unlike
    the canonical expansion this works for digits >= b (generator rows)."""
    e = len(digit_row)
    return value == sum(a * b ** (e - 1 - j) for j, a in enumerate(digit_row))


def max_exponent(n: int, d: int, c: int) -> int:
    """Largest chain count supported by n variables with d candidates and c
    internals per chain: floor((n - d + 1) / (c + 1))."""
    if c < 1:
        raise ValueError("need c >= 1")
    if n <= d:
        raise ValueError("no room for chains: need n > d")
    return (n - d + 1) // (c + 1)


def number_system_report(inst: SynthesizedInstance,
                         agg: AggregateInequality | None = None) -> NumberSystemReport:
    """Compare aggregate coefficients against the generator's digit matrix
    under the positional base-b reading."""
    if inst.spec is None:
        raise ValueError("instance has no family spec to compare against")
    if agg is None:
        agg = chain_aggregate(inst)
    spec = inst.spec
    digits = {}
    coefficients = {}
    ok = True
    for i, v in enumerate(inst.candidate_vars):
        row = spec.digits[i]
        coeff = agg.row.coeffs.get(v, 0) * inst.candidate_polarity
        digits[v] = tuple(row)
        coefficients[v] = coeff
        if not digits_match(coeff, spec.b, row):
            ok = False
    return NumberSystemReport(spec.b, spec.e, digits, coefficients, ok)
