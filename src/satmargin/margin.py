"""Decision lines, per-line feasible intervals, and decision margins of
projected polytopes.

A decision line fixes every kept variable except the dominant one to a 0/1
value and varies the dominant variable.  Substituting the fixed coordinates
into the projected system leaves one-variable bounds whose intersection
(clipped to the 0/1 box) is the line's feasible interval.  The decision
margin is the smallest distance, measured along a line, from the dominant
variable's infeasible value to the nearest interval endpoint, taken over the
lines whose interval excludes that value; lines that contain the infeasible
value witness non-dominance in the projection and are reported but excluded
from the minimum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .chains import SynthesizedInstance, synthesize_fragment_family, FRAGMENT_XOR
from .elimination import AggregateInequality, chain_aggregate, fm_project
from .reduction import (BoundedInequality, InequalitySystem, cnf_to_system,
                        fix_variables)

LINE_CAP = 1 << 12


@dataclass(frozen=True)
class DecisionLineId:
    dominant_var: int
    fixed_coords: tuple[tuple[int, int], ...]  # sorted (var, 0/1) pairs

    def __post_init__(self):
        if any(v == self.dominant_var for v, _ in self.fixed_coords):
            raise ValueError("dominant variable cannot be fixed by its own line")

    def __repr__(self):
        if not self.fixed_coords:
            return f"line(x{self.dominant_var})"
        fixed = ",".join(f"x{v}={val}" for v, val in self.fixed_coords)
        return f"line(x{self.dominant_var}; {fixed})"


@dataclass
class MarginReport:
    dominant_var: int
    infeasible_value: int
    projection_vars: tuple[int, ...]
    per_line: dict[DecisionLineId, tuple[Fraction, Fraction] | None]
    margin: Fraction | None
    # companion-to-dominant aggregate coefficient ratio a2/a1; when flipping
    # the companion to 1 re-admits the infeasible point, the margin cannot
    # exceed this ratio
    coeff_ratio_bound: Fraction | None = None

    def excluding_lines(self):
        iv = self.infeasible_value
        return {line: ival for line, ival in self.per_line.items()
                if ival is not None and not ival[0] <= iv <= ival[1]}

    def containing_lines(self):
        iv = self.infeasible_value
        return {line: ival for line, ival in self.per_line.items()
                if ival is not None and ival[0] <= iv <= ival[1]}


def decision_interval(projected: InequalitySystem,
                      line: DecisionLineId) -> tuple[Fraction, Fraction] | None:
    """Exact feasible interval of the dominant variable on one line, or None
    when the intersection is empty."""
    lo, hi = Fraction(0), Fraction(1)  # the box
    for row in fix_variables(projected, dict(line.fixed_coords)).rows:
        if not row.coeffs:  # fix_variables' mark of a violated row
            return None
        for v in row.coeffs:
            if v != line.dominant_var:
                raise ValueError(
                    f"row mentions x{v}, which the line neither fixes nor varies")
        coeff = row.coeffs[line.dominant_var]
        if coeff > 0:
            lo = max(lo, row.lower / coeff)
            hi = min(hi, row.upper / coeff)
        else:
            lo = max(lo, row.upper / coeff)
            hi = min(hi, row.lower / coeff)
        if lo > hi:
            return None
    return (lo, hi)


def decision_margin(system: InequalitySystem, dominant_var: int,
                    infeasible_value: int, keep,
                    order: str = "greedy", max_rows: int = 100_000,
                    line_cap: int = LINE_CAP) -> MarginReport:
    """Project the system onto ``keep`` and take the margin over all
    decision lines of the dominant variable.

    ``margin`` is None only in the degenerate case where no line has a
    feasible interval at all; it is 0 when every nonempty line contains the
    infeasible value (no line separates it).
    """
    keep = sorted(set(keep))
    if dominant_var not in keep:
        raise ValueError("keep set must contain the dominant variable")
    if infeasible_value not in (0, 1):
        raise ValueError("infeasible value is 0 or 1")
    others = [v for v in keep if v != dominant_var]
    if 1 << len(others) > line_cap:
        raise ValueError(
            f"{1 << len(others)} decision lines exceed the cap {line_cap}")
    projected, _ = fm_project(system, set(keep), order=order, max_rows=max_rows)
    per_line: dict[DecisionLineId, tuple[Fraction, Fraction] | None] = {}
    margin: Fraction | None = None
    any_interval = False
    for values in itertools.product((0, 1), repeat=len(others)):
        line = DecisionLineId(dominant_var, tuple(zip(others, values)))
        interval = decision_interval(projected, line)
        per_line[line] = interval
        if interval is None:
            continue
        any_interval = True
        lo, hi = interval
        if lo <= infeasible_value <= hi:
            continue  # witnesses non-dominance; excluded from the minimum
        dist = lo - infeasible_value if infeasible_value < lo else infeasible_value - hi
        if margin is None or dist < margin:
            margin = dist
    if margin is None and any_interval:
        margin = Fraction(0)
    return MarginReport(dominant_var, infeasible_value, tuple(keep),
                        per_line, margin)


def aggregate_system(agg: AggregateInequality, num_vars: int) -> InequalitySystem:
    """The aggregate row alone, over the instance's variables, with the box."""
    return InequalitySystem(num_vars, [BoundedInequality(
        dict(agg.row.coeffs), agg.row.lower, agg.row.upper)])


def aggregate_ratio_bound(inst: SynthesizedInstance,
                          agg: AggregateInequality
                          ) -> tuple[int, int | None, Fraction | None]:
    """(a1, a2, a2/a1): the aggregate's absolute coefficients on the dominant
    variable and on the first companion candidate, and their ratio, which
    bounds the margin when flipping the companion re-admits the infeasible
    point.  a2 is None without a companion; the ratio is None unless both
    coefficients are nonzero."""
    a1 = abs(agg.row.coeffs.get(inst.dominant_var, 0))
    if len(inst.candidate_vars) < 2:
        return a1, None, None
    a2 = abs(agg.row.coeffs.get(inst.candidate_vars[1], 0))
    return a1, a2, (Fraction(a2, a1) if a1 and a2 else None)


def family_margin(inst: SynthesizedInstance, aggregate_only: bool = True,
                  **options) -> tuple[MarginReport, AggregateInequality]:
    """Decision margin of a synthesized instance's dominant variable at its
    infeasible value, over the candidate variables, with the aggregate's
    coefficient ratio as the bound; also returns the aggregate.

    With ``aggregate_only`` the margin is taken over the aggregate row alone
    (there margin = b_min / a1 on the all-off line); otherwise the full
    clause system is projected, which is slower but cross-checks the
    aggregate picture.  ``options`` (order, max_rows, line_cap) go to
    ``decision_margin``.
    """
    agg = chain_aggregate(inst)
    _, _, bound = aggregate_ratio_bound(inst, agg)
    system = (aggregate_system(agg, inst.cnf.num_vars) if aggregate_only
              else cnf_to_system(inst.cnf))
    report = decision_margin(system, inst.dominant_var,
                             1 - inst.expected_dominant_value,
                             set(inst.candidate_vars), **options)
    report.coeff_ratio_bound = bound
    return report, agg


@dataclass
class SweepRow:
    fragment: str
    e: int
    n: int
    b: int
    c: int
    d: int
    a1: int
    a2: int | None
    b_min: int
    b_max: int
    margin: Fraction | None
    instance: SynthesizedInstance = field(repr=False)
    aggregate: AggregateInequality = field(repr=False)

    @property
    def margin_float(self) -> float | None:
        return None if self.margin is None else float(self.margin)


def margin_decay_sweep(fragment: str, e_values, b: int, c: int, d: int = 1,
                       aggregate_only: bool = True,
                       seed: int | None = None) -> list[SweepRow]:
    """Synthesize the fragment's canonical family for each chain count e and
    take its ``family_margin``."""
    if fragment == FRAGMENT_XOR:
        raise ValueError("XOR families have no inequality form to take margins of")
    rows = []
    for e in e_values:
        inst = synthesize_fragment_family(fragment, e=e, c=c, b=b, d=d, seed=seed)
        report, agg = family_margin(inst, aggregate_only)
        a1, a2, _ = aggregate_ratio_bound(inst, agg)
        rows.append(SweepRow(
            fragment=fragment, e=e, n=inst.cnf.num_vars,
            b=inst.spec.b, c=c, d=d, a1=a1, a2=a2,
            b_min=agg.b_min, b_max=agg.b_max,
            margin=report.margin, instance=inst, aggregate=agg))
    return rows
