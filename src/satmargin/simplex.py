"""Exact rational linear programming over the 0/1 box via integer-pivoting
simplex.

The tableau is fraction-free (Bareiss): every entry is an integer minor
over one common positive denominator D, and no floating point is involved
anywhere.  Each row, the objective row included, is a sparse ``dict`` from
column to non-zero python int, tagged with the denominator ``d[i]`` it was
last written at, so that row i's values are T[i][j] / d[i]; its entries in
the dense Bareiss tableau over D are T[i][j] * D // d[i].  Python ints
grow as needed, so results are exact at every size.

A pivot is the Bareiss update T[i] <- (piv*T[i] - T[i,c]*T[r]) / D.  A row
with a zero in the pivot column only changes scale, which its tag already
records, so every pivot rewrites only the rows with a non-zero in its
column (the objective row among them); on the stored rows the update is
(piv*T[i] - T[i,c]*T[r]) / d[i], with T[r] read over D, and a row already
tagged with piv is updated in place without the multiply.  A column index,
the set of rows with a non-zero in each column, finds those rows without a
scan.

Bland's smallest-index rule makes the method anti-cycling and
deterministic; its ratio test is one exact minimum over the rows with a
positive entry in the entering column, ties broken on the basic variable.
A row's scale cancels in its ratio, so stored entries are compared.  Two
phases: phase 1 minimizes the total of the artificial variables, and then
freezes the columns whose phase-1 reduced cost is zero; only those columns
may enter for any later objective, which keeps the artificials at 0.

Every system lies in the 0/1 box.  The box rows x_i <= 1 bound the
variables, and each slack and artificial is affine in them, so every tableau
column is bounded and no LP here, phase 1 included, can be unbounded.

``ExactSimplex`` is the one way to drive a tableau: ``feasible`` runs
phase 1 once, then ``minimize``/``maximize`` re-optimize the same warm
tableau for each new objective, ``witness`` reads the current vertex, and
``intervals`` gets every variable's bounds as 2n objectives on it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .reduction import InequalitySystem


class _Rows(list):
    """The tableau's rows, sparse python-int dicts; entries are never
    promoted, so the element type is always plain ``int``."""

    dtype = int


class ExactSimplex:
    """One boxed constraint system, many objectives.

    Variables are columns with x >= 0, and the box adds the x_i <= 1 rows.
    """

    def __init__(self, system: InequalitySystem):
        self.n = n = system.num_vars

        # Rows  a . x <= b, each side scaled to integers once; the sides the
        # box implies are redundant and stay out of the tableau.
        rows: list[tuple[dict[int, int], int]] = []
        for row in system.rows:
            a = row.coeffs
            mx = sum(c for c in a.values() if c > 0)
            mn = sum(c for c in a.values() if c < 0)
            p, q = row.upper.numerator, row.upper.denominator
            if p < mx * q:
                rows.append(({v: c * q for v, c in a.items()}, p))
            p, q = row.lower.numerator, row.lower.denominator
            if p > mn * q:
                rows.append(({v: -c * q for v, c in a.items()}, -p))
        rows += [({v: 1}, 1) for v in range(1, n + 1)]

        m = len(rows)
        n_art = sum(1 for _, b in rows if b < 0)
        ncols = n + m + n_art
        T = _Rows()
        basis = []
        arts = iter(range(n + m, ncols))
        for i, (a, b) in enumerate(rows):
            sign = -1 if b < 0 else 1  # negative rhs rows get artificials
            t = {v - 1: sign * c for v, c in a.items()}
            t[n + i] = sign  # slack
            if b:
                t[ncols] = sign * b
            basis.append(n + i if sign > 0 else next(arts))  # slack or artificial
            t[basis[i]] = 1
            T.append(t)
        T.append({})  # row m: the objective
        cols: list[set[int]] = [set() for _ in range(ncols + 1)]
        for i, t in enumerate(T):
            for j in t:
                cols[j].add(i)

        self.m = m
        self._cols = cols  # column -> the rows with a non-zero in it
        self.ncols = ncols
        self.T = T
        self.d = [1] * (m + 1)
        self.D = 1
        self.basis = basis
        # Phase 1 minimizes the artificial total; the artificials are the
        # last n_art columns.
        self._set_objective(dict.fromkeys(range(n + m, ncols), 1))
        self._eligible = [True] * ncols + [False]  # the rhs never enters
        self._feasible: bool | None = None

    # -- tableau mechanics -------------------------------------------------

    def _set_objective(self, cost: dict[int, int]):
        """Row m := D-scaled reduced costs  sum_i c[basis_i] T[i,j] - D c[j],
        summed over the basic rows with a non-zero cost only."""
        T, d, D = self.T, self.d, self.D
        z: dict[int, int] = {}
        for i, b in enumerate(self.basis):
            cb = cost.get(b)
            if cb:
                di = d[i]
                for j, x in T[i].items():
                    z[j] = z.get(j, 0) + cb * (x if di == D else x * D // di)
        for j, cj in cost.items():
            z[j] = z.get(j, 0) - D * cj
        cols, m = self._cols, self.m
        for j in T[m]:
            cols[j].discard(m)
        T[m] = z = {j: x for j, x in z.items() if x}
        d[m] = D
        for j in z:
            cols[j].add(m)

    def _pivot(self, r: int, c: int):
        T, d, D = self.T, self.d, self.D
        top = T[r]
        piv = top.get(c, 0)
        if d[r] != D:  # row r over D: the dense pivot row
            piv = piv * D // d[r]
            top = {j: x * D // d[r] for j, x in top.items()}
        if not piv > 0:
            raise RuntimeError(
                f"simplex invariant broken: pivot T[{r},{c}] = {piv} is not positive")
        # Every division is exact, as every dense entry is a minor.  Column
        # c becomes zero in every rewritten row.
        rest = [(j, y) for j, y in top.items() if j != c]
        cols = self._cols
        for i in cols[c]:
            if i == r:
                continue
            row = T[i]
            f, di = row.pop(c), d[i]
            scaled = di != piv
            if scaled:
                row = {j: piv * x for j, x in row.items()}
                q = 1
            else:  # piv*T[i] / d[i] is T[i]: update it in place
                q = di
            get = row.get
            for j, y in rest:
                x = get(j)
                if x is None:
                    row[j] = -(f * y // q)
                    cols[j].add(i)
                elif x := x - f * y // q:
                    row[j] = x
                else:
                    del row[j]
                    cols[j].discard(i)
            if scaled:
                T[i] = {j: x // di for j, x in row.items()}
                d[i] = piv
        cols[c] = {r}
        T[r] = top
        d[r] = piv
        self.D = piv
        self.basis[r] = c

    def _ratio_leave(self, e: int) -> int:
        """Bland leaving row for entering column e: among the rows with
        T[i, e] > 0, the least ratio rhs / T[i, e], ties to the smallest
        basic variable; ratios are compared exactly, cross-multiplied."""
        T, rhs, basis = self.T, self.ncols, self.basis
        best = None
        for i in self._cols[e]:
            den = T[i][e]
            if den > 0 and i < self.m:
                num = T[i].get(rhs, 0)
                if best is None or (num * best_den, basis[i]) < \
                        (best_num * den, basis[best]):
                    best, best_num, best_den = i, num, den
        if best is None:
            raise RuntimeError(
                f"simplex invariant broken: column {e} is an improving ray, "
                "but every column of a boxed tableau is bounded")
        return best

    def _optimize_current(self):
        """Bland simplex on row m to optimality: enter the smallest eligible
        column with a positive reduced cost."""
        eligible = self._eligible
        while True:
            c = min((j for j, x in self.T[self.m].items()
                     if x > 0 and eligible[j]), default=None)
            if c is None:
                return
            self._pivot(self._ratio_leave(c), c)

    # -- public interface --------------------------------------------------

    def feasible(self) -> bool:
        """Phase 1, run once: is the system's rational relaxation nonempty?"""
        if self._feasible is None:
            self._optimize_current()
            z = self.T[self.m]
            self._feasible = self.ncols not in z
            # Freeze the columns with zero phase-1 reduced cost.  A pivot on
            # one would only rescale the phase-1 row by piv/D > 0, so the
            # mask stays exact once later objectives replace that row.
            self._eligible = [j not in z for j in range(self.ncols)] + [False]
        return self._feasible

    def minimize(self, objective: dict[int, Fraction]) -> Fraction | None:
        """Exact minimum of sum(objective[v] * x_v) over the system, or None
        when the system is infeasible."""
        if not self.feasible():
            return None
        scale = lcm(*(Fraction(c).denominator for c in objective.values())) \
            if objective else 1
        cost = {}
        for v, coeff in objective.items():
            if not 1 <= v <= self.n:
                raise ValueError(f"objective references x{v} outside 1..{self.n}")
            cost[v - 1] = int(Fraction(coeff) * scale)
        self._set_objective(cost)
        # phase 1 left the artificials at 0 and only eligible columns enter,
        # so they stay at 0
        self._optimize_current()
        return Fraction(self.T[self.m].get(self.ncols, 0),
                        self.d[self.m] * scale)

    def maximize(self, objective: dict[int, Fraction]) -> Fraction | None:
        """Exact maximum, or None when the system is infeasible."""
        low = self.minimize({v: -Fraction(c) for v, c in objective.items()})
        return None if low is None else -low

    def witness(self) -> tuple[Fraction, ...]:
        """The current vertex: after ``minimize``/``maximize``, an optimum."""
        vals = [Fraction(0)] * self.n
        rhs = self.ncols
        for i, b in enumerate(self.basis):
            if b < self.n:
                vals[b] = Fraction(self.T[i].get(rhs, 0), self.d[i])
        return tuple(vals)

    def intervals(self) -> dict[int, tuple[Fraction, Fraction]] | None:
        """Exact (min, max) of every variable, as 2n objectives on this warm
        tableau; None when the system is infeasible."""
        if not self.feasible():
            return None
        one = Fraction(1)
        return {v: (self.minimize({v: one}), self.maximize({v: one}))
                for v in range(1, self.n + 1)}
