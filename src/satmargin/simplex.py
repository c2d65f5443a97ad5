"""Exact rational linear programming over the 0/1 box via integer-pivoting
simplex.

The tableau is kept as an integer matrix T with a single positive
denominator D (fraction-free Gauss-Jordan pivoting), so every tableau value
is exactly T[i][j] / D; no floating point is involved anywhere.  Bland's
smallest-index rule makes the method anti-cycling and deterministic.
The objective is the tableau's last row, so every pivot updates it along
with the constraint rows.  Two phases: phase 1 minimizes the total of the
artificial variables, and then freezes a mask of the columns whose phase-1
reduced cost is zero; only those columns may enter for any later objective,
which keeps the artificials at 0.

Only boxed systems are accepted.  The box rows x_i <= 1 bound the variables,
and each slack and artificial is affine in them, so every tableau column is
bounded and no LP here, phase 1 included, can be unbounded.

The integer matrices live in numpy int64 arrays while entries are small and
are promoted to python-int object arrays before any overflow could occur,
so results are exact at every size.

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

        # Assemble rows  a . x <= b  (integer a, b after per-row scaling).
        raw_rows: list[tuple[dict[int, int], Fraction]] = []
        for row in system.rows:
            mx = sum(c for c in row.coeffs.values() if c > 0)
            mn = sum(c for c in row.coeffs.values() if c < 0)
            # Box-implied sides are redundant; keep them out of the tableau.
            if row.upper < mx:
                raw_rows.append((dict(row.coeffs), row.upper))
            if row.lower > mn:
                raw_rows.append(({v: -c for v, c in row.coeffs.items()},
                                 -row.lower))
        for v in range(1, n + 1):
            raw_rows.append(({v: 1}, Fraction(1)))

        m = len(raw_rows)
        n_art = sum(1 for _, b in raw_rows if b < 0)
        ncols = n + m + n_art
        biggest = 0
        for coeffs, b in raw_rows:
            den = Fraction(b).denominator
            entries = [abs(c) * den for c in coeffs.values()]
            entries.append(abs(Fraction(b).numerator))
            biggest = max(biggest, max(entries, default=0))
        dtype = object if biggest >= _INT64_SAFE else np.int64
        T = np.zeros((m + 1, ncols + 1), dtype=dtype)  # row m: objective
        basis = [0] * m
        next_art = n + m
        for i, (coeffs, b) in enumerate(raw_rows):
            den = Fraction(b).denominator   # scale the row to integers
            bi = Fraction(b).numerator
            sign = -1 if bi < 0 else 1      # negative rhs rows get artificials
            for v, c in coeffs.items():
                T[i, v - 1] = sign * c * den
            T[i, n + i] = sign  # slack
            T[i, ncols] = sign * bi
            if sign < 0:
                T[i, next_art] = 1
                basis[i] = next_art
                next_art += 1
            else:
                basis[i] = n + i

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
        cb = np.array([int(cost[b]) for b in self.basis], dtype=self.T.dtype)
        # np.dot (unlike @) also handles object-dtype tableaux
        self.T[self.m] = (np.dot(cb, self.T[:self.m])
                          - self.D * cost.astype(self.T.dtype))

    def _pivot(self, r: int, c: int):
        T = self.T
        piv = T[r, c]
        if not piv > 0:
            raise RuntimeError(
                f"simplex invariant broken: pivot T[{r},{c}] = {piv} is not positive")
        if T.dtype != object and int(np.abs(T).max()) >= _INT64_SAFE:
            T = self.T = T.astype(object)
            piv = T[r, c]
        col = T[:, c].copy()
        rowr = T[r].copy()
        T *= piv
        T -= np.outer(col, rowr)
        T //= self.D
        T[r] = rowr
        self.D = int(piv)
        self.basis[r] = c

    def _ratio_leave(self, e: int) -> int:
        """Bland leaving row for entering column e."""
        T = self.T
        best = None  # (num, den, basis var)
        best_row = None
        rhs = self.ncols
        for i in range(self.m):
            a = T[i, e]
            if a <= 0:
                continue
            num, den = T[i, rhs], a
            if best is None:
                better = True
            else:
                lhs = int(num) * int(best[1])
                rhsv = int(best[0]) * int(den)
                better = lhs < rhsv or (lhs == rhsv and self.basis[i] < best[2])
            if better:
                best = (int(num), int(den), self.basis[i])
                best_row = i
        if best_row is None:
            raise RuntimeError(
                f"simplex invariant broken: column {e} is an improving ray, "
                "but every column of a boxed tableau is bounded")
        return best_row

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
