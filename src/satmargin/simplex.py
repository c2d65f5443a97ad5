"""Exact rational linear programming over the 0/1 box via integer-pivoting
simplex.

The tableau is kept as an integer matrix T with a single positive
denominator D (fraction-free Gauss-Jordan pivoting), so every tableau value
is exactly T[i][j] / D; no floating point is involved anywhere.  Bland's
smallest-index rule makes the method anti-cycling and deterministic; its
ratio test is one exact minimum over the rows that a mask of the entering
column selects, with ties broken on the basic variable.
The objective is the tableau's last row, so every pivot updates it along
with the constraint rows.  Two phases: phase 1 minimizes the total of the
artificial variables, and then freezes a mask of the columns whose phase-1
reduced cost is zero; only those columns may enter for any later objective,
which keeps the artificials at 0.

Only boxed systems are accepted.  The box rows x_i <= 1 bound the variables,
and each slack and artificial is affine in them, so every tableau column is
bounded and no LP here, phase 1 included, can be unbounded.

A pivot is the Bareiss update T[i] <- (piv*T[i] - T[i,c]*T[r]) / D.  When
piv == D it leaves every row with T[i,c] == 0 as it is, so such a pivot
rewrites only the rows with a non-zero in the pivot column, the objective
row among them; otherwise every row is rescaled.

The integer matrices live in numpy int64 arrays while entries are small and
are promoted to python-int object arrays before any overflow could occur,
so results are exact at every size.  The guard before a pivot bounds the
rows that pivot rewrites, all of them when piv != D.

``ExactSimplex`` is the one way to drive a tableau: ``feasible`` runs
phase 1 once, then ``minimize``/``maximize`` re-optimize the same warm
tableau for each new objective, ``witness`` reads the current vertex, and
``intervals`` gets every variable's bounds as 2n objectives on it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .reduction import InequalitySystem

_INT64_SAFE = 1 << 30  # pivot products stay below 2**62


class ExactSimplex:
    """One boxed constraint system, many objectives.

    Variables are columns with x >= 0, and the box adds the x_i <= 1 rows.
    """

    def __init__(self, system: InequalitySystem):
        if not system.box:
            raise ValueError("the simplex operates on boxed systems")
        self.n = n = system.num_vars

        # Rows  a . x <= b, each side scaled to integers once; the sides the
        # box implies are redundant and stay out of the tableau.
        rows: list[tuple[dict[int, int], int]] = []
        for row in system.rows:
            mx = sum(c for c in row.coeffs.values() if c > 0)
            mn = sum(c for c in row.coeffs.values() if c < 0)
            for sign, b, implied in ((1, row.upper, mx), (-1, -row.lower, -mn)):
                if b < implied:
                    rows.append(({v: sign * c * b.denominator
                                  for v, c in row.coeffs.items()}, b.numerator))
        rows += [({v: 1}, 1) for v in range(1, n + 1)]

        m = len(rows)
        n_art = sum(1 for _, b in rows if b < 0)
        ncols = n + m + n_art
        biggest = max((abs(x) for a, b in rows for x in (*a.values(), b)),
                      default=0)
        dtype = object if biggest >= _INT64_SAFE else np.int64
        T = np.zeros((m + 1, ncols + 1), dtype=dtype)  # row m: objective
        basis = []
        arts = iter(range(n + m, ncols))
        for i, (a, b) in enumerate(rows):
            sign = -1 if b < 0 else 1  # negative rhs rows get artificials
            for v, c in a.items():
                T[i, v - 1] = sign * c
            T[i, n + i] = sign  # slack
            T[i, ncols] = sign * b
            basis.append(n + i if sign > 0 else next(arts))  # slack or artificial
            T[i, basis[i]] = 1

        self.m = m
        self.ncols = ncols
        self.T = T
        self.D = 1
        self.basis = basis
        # Phase 1 minimizes the artificial total; the artificials are the
        # last n_art columns.
        cost = np.zeros(ncols + 1, dtype=np.int64)
        cost[n + m:ncols] = 1
        self._set_objective(cost)
        self._eligible = np.ones(ncols, dtype=bool)
        self._feasible: bool | None = None

    # -- tableau mechanics -------------------------------------------------

    def _set_objective(self, cost: np.ndarray):
        """Row m := D-scaled reduced costs  sum_i c[basis_i] T[i,j] - D c[j]."""
        # plain-int elements in the object path: np.int64 scalars would
        # overflow when multiplied into arbitrary-precision tableau entries
        cb = [int(cost[b]) for b in self.basis]
        # every term and partial sum of row m stays within this bound
        if self.T.dtype != object and (
                sum(map(abs, cb)) * int(np.abs(self.T[:self.m]).max(initial=0))
                + self.D * int(np.abs(cost).max(initial=0)) >= 1 << 62):
            self.T = self.T.astype(object)
        # np.dot (unlike @) also handles object-dtype tableaux
        self.T[self.m] = (np.dot(np.array(cb, dtype=self.T.dtype), self.T[:self.m])
                          - self.D * cost.astype(self.T.dtype))

    def _pivot(self, r: int, c: int):
        T = self.T
        piv = T[r, c]
        if not piv > 0:
            raise RuntimeError(
                f"simplex invariant broken: pivot T[{r},{c}] = {piv} is not positive")
        # The division is exact, as every entry is a minor.  With piv == D
        # only the column's non-zero rows (row r among them) change, so only
        # they are bounded and rewritten, in a copy; otherwise all of T is,
        # in place.
        sparse = piv == self.D
        rows = np.flatnonzero(T[:, c]) if sparse else slice(None)
        sub = T[rows]
        if T.dtype != object and int(np.abs(sub).max()) >= _INT64_SAFE:
            T = self.T = T.astype(object)
            sub = T[rows]
            piv = T[r, c]
        col = sub[:, c].copy()
        rowr = T[r].copy()
        sub *= piv
        sub -= np.outer(col, rowr)
        sub //= self.D
        if sparse:
            T[rows] = sub
        T[r] = rowr
        self.D = int(piv)
        self.basis[r] = c

    def _ratio_leave(self, e: int) -> int:
        """Bland leaving row for entering column e: among the rows with
        T[i, e] > 0, the least ratio rhs / T[i, e], ties to the smallest
        basic variable; ratios are compared exactly, as python ints."""
        col = self.T[:self.m, e]
        rows = np.flatnonzero(col > 0)
        if not rows.size:
            raise RuntimeError(
                f"simplex invariant broken: column {e} is an improving ray, "
                "but every column of a boxed tableau is bounded")
        nums, dens = self.T[rows, self.ncols].tolist(), col[rows].tolist()
        best = 0
        for k in range(1, len(nums)):  # cross-multiplied, so no division
            if (nums[k] * dens[best], self.basis[rows[k]]) < \
                    (nums[best] * dens[k], self.basis[rows[best]]):
                best = k
        return int(rows[best])

    def _optimize_current(self):
        """Bland simplex on row m to optimality: enter the smallest eligible
        column with a positive reduced cost."""
        while True:
            enter = np.flatnonzero(self._eligible
                                   & (self.T[self.m, :self.ncols] > 0))
            if not enter.size:
                return
            c = int(enter[0])
            self._pivot(self._ratio_leave(c), c)

    # -- public interface --------------------------------------------------

    def feasible(self) -> bool:
        """Phase 1, run once: is the system's rational relaxation nonempty?"""
        if self._feasible is None:
            self._optimize_current()
            z = self.T[self.m]
            self._feasible = bool(z[self.ncols] == 0)
            # Freeze the columns with zero phase-1 reduced cost.  A pivot on
            # one would only rescale the phase-1 row by piv/D > 0, so the
            # mask stays exact once later objectives replace that row.
            self._eligible = z[:self.ncols] == 0
        return self._feasible

    def minimize(self, objective: dict[int, Fraction]) -> Fraction | None:
        """Exact minimum of sum(objective[v] * x_v) over the system, or None
        when the system is infeasible."""
        if not self.feasible():
            return None
        scale = lcm(*(Fraction(c).denominator for c in objective.values())) \
            if objective else 1
        # object dtype: a coefficient beyond int64 must reach the guard below
        cost = np.zeros(self.ncols + 1, dtype=object)
        for v, coeff in objective.items():
            if not 1 <= v <= self.n:
                raise ValueError(f"objective references x{v} outside 1..{self.n}")
            cost[v - 1] = int(Fraction(coeff) * scale)
        if self.T.dtype != object and np.abs(cost).max(initial=0) >= _INT64_SAFE:
            self.T = self.T.astype(object)
        self._set_objective(cost)
        # phase 1 left the artificials at 0 and only eligible columns enter,
        # so they stay at 0
        self._optimize_current()
        return Fraction(int(self.T[self.m, self.ncols]), self.D * scale)

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
                vals[b] = Fraction(int(self.T[i, rhs]), self.D)
        return tuple(vals)

    def intervals(self) -> dict[int, tuple[Fraction, Fraction]] | None:
        """Exact (min, max) of every variable, as 2n objectives on this warm
        tableau; None when the system is infeasible."""
        if not self.feasible():
            return None
        one = Fraction(1)
        return {v: (self.minimize({v: one}), self.maximize({v: one}))
                for v in range(1, self.n + 1)}
