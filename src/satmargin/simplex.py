"""Exact rational linear programming via integer-pivoting simplex.

The tableau is kept as an integer matrix T with a single positive
denominator D (fraction-free Gauss-Jordan pivoting), so every tableau value
is exactly T[i][j] / D; no floating point is involved anywhere.  Bland's
smallest-index rule makes the method anti-cycling and deterministic.
Infeasibility is handled with artificial variables under a symbolic big-M
penalty, carried as a second (lexicographically senior) objective row.

The integer matrices live in numpy int64 arrays while entries are small and
are promoted to python-int object arrays before any overflow could occur,
so results are exact at every size.

A tableau can be re-optimized for many objectives over the same constraint
set (``minimize`` can be called repeatedly); ``variable_intervals`` uses
this to get per-variable bounds without re-running feasibility each time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .reduction import InequalitySystem

_INT64_SAFE = 1 << 30  # pivot products stay below 2**62


@dataclass
class LpProblem:
    system: InequalitySystem
    objective: dict[int, Fraction]
    sense: str = "min"  # "min" | "max"


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    witness: tuple | None = None


class ExactSimplex:
    """One constraint system, many objectives.

    Boxed systems use x >= 0 with explicit x_i <= 1 rows; unboxed systems
    split every variable into a difference of nonnegatives.
    """

    def __init__(self, system: InequalitySystem):
        self.system = system
        self.n = system.num_vars
        self.split = not system.box
        nstruct = 2 * self.n if self.split else self.n

        # Assemble rows  a . x <= b  (integer a, b after per-row scaling).
        raw_rows: list[tuple[dict[int, int], Fraction]] = []
        for row in system.rows:
            mx = sum(c for c in row.coeffs.values() if c > 0)
            mn = sum(c for c in row.coeffs.values() if c < 0)
            # Box-implied sides are redundant; keep them out of the tableau.
            if not system.box or row.upper < mx:
                raw_rows.append((dict(row.coeffs), row.upper))
            if not system.box or row.lower > mn:
                raw_rows.append(({v: -c for v, c in row.coeffs.items()},
                                 -row.lower))
        if system.box:
            for v in range(1, self.n + 1):
                raw_rows.append(({v: 1}, Fraction(1)))

        m = len(raw_rows)
        n_art = sum(1 for _, b in raw_rows if b < 0)
        ncols = nstruct + m + n_art
        biggest = 0
        for coeffs, b in raw_rows:
            den = Fraction(b).denominator
            entries = [abs(c) * den for c in coeffs.values()]
            entries.append(abs(Fraction(b).numerator))
            biggest = max(biggest, max(entries, default=0))
        dtype = object if biggest >= _INT64_SAFE else np.int64
        T = np.zeros((m, ncols + 1), dtype=dtype)
        basis = [0] * m
        art_cols = []
        next_art = nstruct + m
        for i, (coeffs, b) in enumerate(raw_rows):
            den = Fraction(b).denominator   # scale the row to integers
            bi = Fraction(b).numerator
            sign = -1 if bi < 0 else 1      # negative rhs rows get artificials
            for v, c in coeffs.items():
                val = sign * c * den
                if self.split:
                    T[i, 2 * (v - 1)] = val
                    T[i, 2 * (v - 1) + 1] = -val
                else:
                    T[i, v - 1] = val
            T[i, nstruct + i] = sign  # slack
            T[i, ncols] = sign * bi
            if sign < 0:
                T[i, next_art] = 1
                art_cols.append(next_art)
                basis[i] = next_art
                next_art += 1
            else:
                basis[i] = nstruct + i

        self.m = m
        self.ncols = ncols
        self.nstruct = nstruct
        self.T = T
        self.D = 1
        self.basis = basis
        self.art_cols = set(art_cols)
        # Senior objective row: minimize the artificial total (big-M part).
        c1 = np.zeros(ncols + 1, dtype=np.int64)
        for j in art_cols:
            c1[j] = 1
        self._c1 = c1
        self.Z1 = self._fresh_zrow(c1)
        self.Z0 = np.zeros(ncols + 1, dtype=np.int64)
        self._feasible: bool | None = None

    # -- tableau mechanics -------------------------------------------------

    def _fresh_zrow(self, cost: np.ndarray):
        """D-scaled reduced-cost row  Z[j] = sum_i c[basis_i] T[i,j] - D c[j]."""
        # plain-int elements in the object path: np.int64 scalars would
        # overflow when multiplied into arbitrary-precision tableau entries
        cb = np.array([int(cost[b]) for b in self.basis], dtype=self.T.dtype)
        # np.dot (unlike @) also handles object-dtype tableaux
        z = np.dot(cb, self.T) - self.D * cost.astype(self.T.dtype)
        return z

    def _promote(self):
        if self.T.dtype == object:
            return
        self.T = self.T.astype(object)
        self.Z0 = self.Z0.astype(object)
        self.Z1 = self.Z1.astype(object)

    def _pivot(self, r: int, c: int):
        T = self.T
        piv = T[r, c]
        if not piv > 0:
            raise RuntimeError(
                f"simplex invariant broken: pivot T[{r},{c}] = {piv} is not positive")
        if T.dtype != object:
            hi = max(int(np.abs(T).max()), int(np.abs(self.Z0).max()),
                     int(np.abs(self.Z1).max()))
            if hi >= _INT64_SAFE:
                self._promote()
                T = self.T
                piv = T[r, c]
        col = T[:, c].copy()
        rowr = T[r].copy()
        T *= piv
        T -= np.outer(col, rowr)
        T //= self.D
        T[r] = rowr
        for z in (self.Z0, self.Z1):
            zc = z[c]
            z *= piv
            z -= zc * rowr
            z //= self.D
        self.D = int(piv)
        self.basis[r] = c
        self.T = T

    def _ratio_leave(self, e: int) -> int | None:
        """Bland leaving row for entering column e; None when unbounded."""
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
        return best_row

    def _optimize_current(self) -> str:
        """Run lexicographic (big-M) Bland simplex to optimality."""
        while True:
            enter = None
            Z1, Z0 = self.Z1, self.Z0
            for j in range(self.ncols):
                z1 = Z1[j]
                if z1 > 0 or (z1 == 0 and Z0[j] > 0):
                    enter = j
                    break
            if enter is None:
                return "optimal"
            leave = self._ratio_leave(enter)
            if leave is None:
                # a ray improves the objective; if artificials are still
                # positive the original program never was feasible
                return "infeasible" if self.Z1[self.ncols] > 0 else "unbounded"
            self._pivot(leave, enter)

    # -- public interface --------------------------------------------------

    def feasible(self) -> bool:
        if self._feasible is None:
            self.Z0 = np.zeros(self.ncols + 1, dtype=self.T.dtype)
            status = self._optimize_current()
            self._feasible = status == "optimal" and self.Z1[self.ncols] == 0
        return self._feasible

    def minimize(self, objective: dict[int, Fraction]) -> LpResult:
        """Exact minimum of sum(objective[v] * x_v) over the system."""
        if not self.feasible():
            return LpResult("infeasible")
        scale = lcm(*(Fraction(c).denominator for c in objective.values())) \
            if objective else 1
        c0 = np.zeros(self.ncols + 1, dtype=self.T.dtype)
        for v, coeff in objective.items():
            if not 1 <= v <= self.n:
                raise ValueError(f"objective references x{v} outside 1..{self.n}")
            val = int(Fraction(coeff) * scale)
            if self.split:
                c0[2 * (v - 1)] = val
                c0[2 * (v - 1) + 1] = -val
            else:
                c0[v - 1] = val
        if self.T.dtype != object and np.abs(c0).max(initial=0) >= _INT64_SAFE:
            self._promote()
            c0 = c0.astype(object)
        self.Z0 = self._fresh_zrow(c0)
        status = self._optimize_current()
        if status == "unbounded":
            return LpResult("unbounded")
        if status == "infeasible" or self.Z1[self.ncols] > 0:
            return LpResult("infeasible")
        value = Fraction(int(self.Z0[self.ncols]), self.D * scale)
        return LpResult("optimal", value, self.witness())

    def maximize(self, objective: dict[int, Fraction]) -> LpResult:
        res = self.minimize({v: -Fraction(c) for v, c in objective.items()})
        if res.status == "optimal":
            return LpResult("optimal", -res.value, res.witness)
        return res

    def witness(self) -> tuple:
        vals = [Fraction(0)] * self.nstruct
        rhs = self.ncols
        for i, b in enumerate(self.basis):
            if b < self.nstruct:
                vals[b] = Fraction(int(self.T[i, rhs]), self.D)
        if self.split:
            return tuple(vals[2 * k] - vals[2 * k + 1] for k in range(self.n))
        return tuple(vals)


def solve(problem: LpProblem) -> LpResult:
    """Solve a single LP exactly (simplex with Bland's rule)."""
    tab = ExactSimplex(problem.system)
    obj = {v: Fraction(c) for v, c in problem.objective.items()}
    if problem.sense == "max":
        return tab.maximize(obj)
    if problem.sense != "min":
        raise ValueError(f"unknown sense {problem.sense!r}")
    return tab.minimize(obj)


def variable_interval(system: InequalitySystem, var: int):
    """(min, max) of one variable over the relaxation, or None if infeasible."""
    tab = ExactSimplex(system)
    if not tab.feasible():
        return None
    lo = tab.minimize({var: Fraction(1)})
    hi = tab.maximize({var: Fraction(1)})
    return (lo.value, hi.value)


def variable_intervals(system: InequalitySystem, vars=None):
    """Feasible interval of every requested variable (default: all), reusing
    one warm tableau.  Returns None when the relaxation is infeasible."""
    tab = ExactSimplex(system)
    if not tab.feasible():
        return None
    out: dict[int, tuple[Fraction, Fraction]] = {}
    for v in (vars if vars is not None else range(1, system.num_vars + 1)):
        lo = tab.minimize({v: Fraction(1)})
        hi = tab.maximize({v: Fraction(1)})
        out[v] = (lo.value, hi.value)
    return out
