"""Exact rational linear programming over the 0/1 box via integer-pivoting
simplex: a dual simplex for feasibility, then the primal for each objective.

The tableau is fraction-free (Bareiss): every entry is, up to sign, an
integer minor over one common positive denominator D, and no floating point
is involved anywhere.  Each row, the objective row included, is a sparse
``dict`` from column to non-zero python int, tagged with the denominator
``d[i]`` it was last written at, so that row i's values are T[i][j] / d[i];
its entries in the dense Bareiss tableau over D are T[i][j] * D // d[i].
Python ints grow as needed, so results are exact at every size.

A pivot is the Bareiss update T[i] <- (piv*T[i] - T[i,c]*T[r]) / D.  A row
with a zero in the pivot column only changes scale, which its tag already
records, so every pivot rewrites only the rows with a non-zero in its
column (the objective row among them); on the stored rows the update is
(piv*T[i] - T[i,c]*T[r]) / d[i], with T[r] read over D, and a row already
tagged with piv is updated in place without the multiply.  A column index,
the set of rows with a non-zero in each column, finds those rows without a
scan.

Every row a . x <= b starts with its slack basic, b < 0 included.  Every
system lies in the 0/1 box: the box rows x_i <= 1 bound the variables, and
each slack is affine in them, so every tableau column is bounded and no LP
here can be unbounded.

Feasibility is a dual simplex (Lemke, Naval Res. Logist. Q. 1, 1954) from
that slack basis with the zero objective, for which every basis is dual
feasible.  It leaves on the row with a negative right-hand side whose basic
variable is smallest, and enters the column with the least ratio
z_j / T[r, j] over that row's negative entries, ties to the smallest column;
with every cost 0 every ratio is 0, so that is the smallest column with a
negative entry.  The row is negated first, which makes the pivot positive,
so the Bareiss update applies unchanged and D stays positive.  A negative
row with no negative entry proves the system infeasible, since x >= 0
cannot meet it.  The dual ends: read on the dual LP, its leaving row is the
entering dual variable of smallest index, and its entering column the
leaving dual variable that wins the ratio test, ties to the smallest index.
That is Bland's rule (Math. Oper. Res. 2, 1977) on the dual, which never
returns to a basis, although with zero cost every pivot is dual-degenerate.

After it every right-hand side is >= 0, and each objective runs the primal
simplex on the same warm tableau over every column.  Bland's rule enters
the smallest column with a positive reduced cost; the ratio test is one
exact minimum over the rows with a positive entry in that column, ties to
the smaller basic variable.  A row's scale cancels in its ratio, so stored
entries are compared.  No phase 1, artificial column or column mask is
needed.

``ExactSimplex`` is the one way to drive a tableau: ``feasible`` runs the
dual once, then ``minimize``/``maximize`` re-optimize the same warm tableau
for each new objective, ``witness`` reads the current vertex, and
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

        # Each row keeps its slack as the basic variable, even where b < 0:
        # with a zero objective that basis is dual feasible.
        m = len(rows)
        ncols = n + m
        T = _Rows()
        for i, (a, b) in enumerate(rows):
            t = {v - 1: c for v, c in a.items()}
            t[n + i] = 1  # slack
            if b:
                t[ncols] = b
            T.append(t)
        T.append({})  # row m: the objective, zero until one is set
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
        self.basis = list(range(n, ncols))
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
        """Bland simplex on row m to optimality: enter the smallest column
        with a positive reduced cost.

        Bland's rule ends on a correct tableau, but a pivot cap would not be
        sound, as it can take exponentially many pivots.  So each pivot is
        checked instead for what no correct pivot does: leave the entering
        column priced, make the objective worse, or leave a rewritten row
        with a negative right-hand side."""
        T, d, m, rhs = self.T, self.d, self.m, self.ncols
        while True:
            z = T[m]
            c = min((j for j, x in z.items() if x > 0 and j != rhs), default=None)
            if c is None:
                return
            rewritten = [i for i in self._cols[c] if i < m]
            value, scale = z.get(rhs, 0), d[m]
            self._pivot(self._ratio_leave(c), c)
            z = T[m]
            if c in z or z.get(rhs, 0) * scale > value * d[m] \
                    or any(T[i].get(rhs, 0) < 0 for i in rewritten):
                raise RuntimeError(
                    f"simplex invariant broken: the pivot on column {c} left "
                    "it priced, made the objective worse or a right-hand "
                    "side negative")

    # -- public interface --------------------------------------------------

    def feasible(self) -> bool:
        """Dual simplex with the zero objective, run once: is the system's
        rational relaxation nonempty?  Afterwards every right-hand side is
        >= 0, so the tableau is primal feasible for every later objective."""
        if self._feasible is None:
            T, basis, rhs, m = self.T, self.basis, self.ncols, self.m
            while True:
                r = min((i for i in self._cols[rhs] if i < m and T[i][rhs] < 0),
                        key=basis.__getitem__, default=None)
                if r is None:
                    self._feasible = True
                    break
                # every ratio z_j / T[r, j] is 0, so the tie-break decides
                c = min((j for j, x in T[r].items() if x < 0 and j != rhs),
                        default=None)
                if c is None:  # x >= 0 cannot meet a row with no negative entry
                    self._feasible = False
                    break
                T[r] = {j: -x for j, x in T[r].items()}
                self._pivot(r, c)
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
