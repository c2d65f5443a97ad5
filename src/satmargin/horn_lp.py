"""Horn-SAT decision procedure driven by one least-element LP.

Written as ``>=`` rows, a Horn clause row has at most one positive
coefficient and the box row ``-x >= -1`` has none, so the relaxation is
closed under componentwise min and, when nonempty, has a least element x*
(Cottle & Veinott, "Polyhedral sets having a least element", Math.
Programming 3, 1972).  Every feasible x is >= x* componentwise, so a single
exact ``min sum x`` has x* as its unique optimum, and x*_v is variable v's
LP lower bound.

The procedure: build the clause inequality system, solve that one LP,
select the variables whose least-element coordinate is > 0 (their feasible
interval excludes 0), assign 1 to those and 0 to the rest, and verify the
assignment on the CNF.  Verification is unconditional, so a SAT answer is
sound whatever the estimation step does; an assignment that fails it can
only come from a simplex bug and raises ``RuntimeError``, never a verdict.
Unit propagation always runs alongside as a cross-check and the report
records agreement.

With exact LP the selection threshold is sharp (no epsilon): a lower bound
greater than 0 is exactly membership in the minimal model.  Every
variable's full feasible interval is computed on demand, on the first read
of ``HornSolveReport.intervals``, on the tableau the solve already made
feasible, so the asymmetry between value-1 variables (lower bound exactly 1)
and value-0 variables (upper bound possibly strictly between 0 and 1) can
still be inspected.

On this LP the feasibility pass, a dual simplex from the slack basis,
works like unit propagation: a satisfiable CNF takes exactly one pivot per
variable of its minimal model, and ``min sum x`` then starts at the least
element and takes none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .cnf import CNF, SolveResult, evaluate, solve_horn_unit_prop
from .reduction import cnf_to_system
from .simplex import ExactSimplex


@dataclass
class HornSolveReport:
    result: SolveResult
    selected: frozenset[int]
    agreed_with_unit_prop: bool
    unit_prop: SolveResult
    tableau: ExactSimplex = field(repr=False)

    @cached_property
    def intervals(self) -> dict[int, tuple[Fraction, Fraction]] | None:
        """Exact feasible interval of every variable (None: LP infeasible),
        computed on first read: 2n objectives on the solve's warm, already
        feasible tableau, with no second feasibility pass."""
        return self.tableau.intervals()


def solve_horn_margin(cnf: CNF) -> HornSolveReport:
    """Decide a Horn CNF by one least-element LP plus verification."""
    reference = solve_horn_unit_prop(cnf)  # raises on a non-Horn formula
    tableau = ExactSimplex(cnf_to_system(cnf))
    if not tableau.feasible():
        result = SolveResult("UNSAT", None, "horn-lp-margin")
        return HornSolveReport(result, frozenset(),
                               reference.status == "UNSAT", reference, tableau)
    tableau.minimize({v: Fraction(1) for v in range(1, cnf.num_vars + 1)})
    selected = frozenset(v for v, x in enumerate(tableau.witness(), start=1)
                         if x > 0)
    witness = tuple(1 if v in selected else 0
                    for v in range(1, cnf.num_vars + 1))
    if not evaluate(cnf, witness):
        # the least element's support is the minimal model of a Horn CNF
        # whose relaxation is feasible, so only a simplex bug lands here
        raise RuntimeError("Horn LP is feasible but its least element's "
                           "support fails the CNF")
    result = SolveResult("SAT", witness, "horn-lp-margin")
    agreed = reference.status == "SAT" and reference.witness == witness
    return HornSolveReport(result, selected, agreed, reference, tableau)
