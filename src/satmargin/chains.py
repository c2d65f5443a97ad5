"""Synthesis of structured CNF families: decision chains, dominant-variable
blocks, chain couplers, and the coupled families whose facet coefficients
carry a base-b positional structure.

A decision chain over c internal variables is the implication chain

    (X1) (¬X1 v X2) ... (¬X_{c-1} v X_c) (¬X_c)

which is unsatisfiable on its own but becomes satisfiable as soon as any one
clause is satisfied by an inserted variable.  Coupled families connect e such
chains through coupler variables: coupler j appears once in chain j and b
times (in b distinct clauses) in chain j+1 with the opposite sign.  Candidate
variables are inserted a_ij times into chain j according to a d-by-e digit
matrix; after weighted aggregation their coefficients read as base-b numbers
with those digits.

Insertion placement is greedy first-fit over the clauses of a chain
(deterministic; a seed switches to a shuffled preference order).  A clause
can host at most one occurrence of a variable, clauses never exceed the
fragment's width budget, and Horn clauses keep at most one positive literal;
a request that cannot be placed is an error, never silently widened.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .cnf import (CNF, OR, XOR, to_dimacs, brute_force_models,
                  BRUTE_FORCE_CAP)

FRAGMENT_3SAT = "3sat"
FRAGMENT_2SAT = "2sat"
FRAGMENT_HORN_COUPLER = "horn-coupler"
FRAGMENT_HORN_DOMINANT = "horn-dominant"
FRAGMENT_XOR = "xor"

FRAGMENTS = (FRAGMENT_3SAT, FRAGMENT_2SAT, FRAGMENT_HORN_COUPLER,
             FRAGMENT_HORN_DOMINANT, FRAGMENT_XOR)


class CapacityError(ValueError):
    """The requested insertions do not fit the chain's clause slots."""


class FragmentError(ValueError):
    """The spec violates a structural rule of the requested fragment."""


def capacity(m: int, k: int) -> int:
    """Insertion slots of an m-clause width-k chain: the first and last
    clauses hold one internal literal (k-1 free slots each), the middle
    clauses two, giving m*(k-2) + 2 in total."""
    if k < 2 or m < 1:
        raise ValueError("need k >= 2 and m >= 1")
    return m * (k - 2) + 2


@dataclass(frozen=True)
class ChainSpec:
    c: int
    negated: bool = False  # flip the sign of every internal literal

    def __post_init__(self):
        if self.c < 1:
            raise ValueError("chain needs at least one internal variable")


@dataclass(frozen=True)
class DominantBlockSpec:
    multiplicity: int
    polarity: int  # +1: feasible value 1; -1: feasible value 0

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        if self.polarity not in (1, -1):
            raise ValueError("polarity is +1 or -1")


@dataclass(frozen=True)
class CoupledFamilySpec:
    e: int
    b: int
    c: int
    d: int
    digits: tuple  # d rows of e nonnegative ints
    coupler_value: int = 1
    fragment: str = FRAGMENT_3SAT
    width: int | None = None  # overrides the fragment's clause-width budget

    def __post_init__(self):
        object.__setattr__(self, "digits",
                           tuple(tuple(int(x) for x in row) for row in self.digits))

    def width_budget(self) -> int | None:
        if self.width is not None:
            return self.width
        return {FRAGMENT_3SAT: 3, FRAGMENT_2SAT: 2}.get(self.fragment)

    def candidate_polarity(self) -> int:
        return -1 if self.fragment == FRAGMENT_HORN_COUPLER else 1

    def num_vars(self) -> int:
        return self.c * self.e + (self.e - 1) + self.d


@dataclass
class SynthesizedInstance:
    cnf: CNF
    chain_rows: dict[int, list[int]]      # chain index (1-based) -> clause indices
    coupler_vars: list[int]
    candidate_vars: list[int]
    dominant_var: int
    expected_dominant_value: int
    candidate_polarity: int = 1
    spec: CoupledFamilySpec | None = None
    seed: int | None = None

    def coupler_multiplicities(self) -> list[tuple[int, int]]:
        """For coupler j: (occurrences in chain j, occurrences in chain j+1)."""
        out = []
        for j, y in enumerate(self.coupler_vars, start=1):
            m_left = sum(1 for ci in self.chain_rows[j]
                         if y in self.cnf.clauses[ci].vars())
            m_right = sum(1 for ci in self.chain_rows[j + 1]
                          if y in self.cnf.clauses[ci].vars())
            out.append((m_left, m_right))
        return out


def make_chain(spec: ChainSpec | int, first_var: int = 1) -> list[list[int]]:
    """The c+1 clauses of a decision chain over variables
    first_var .. first_var+c-1, as signed-int lists."""
    if isinstance(spec, int):
        spec = ChainSpec(spec)
    v0 = first_var
    c = spec.c
    clauses = [[v0]]
    for i in range(c - 1):
        clauses.append([-(v0 + i), v0 + i + 1])
    clauses.append([-(v0 + c - 1)])
    if spec.negated:
        clauses = [[-lit for lit in cl] for cl in clauses]
    return clauses


def chain_cnf(spec: ChainSpec | int) -> CNF:
    """The bare chain as a CNF (unsatisfiable by construction)."""
    if isinstance(spec, int):
        spec = ChainSpec(spec)
    return CNF.from_ints(spec.c, ors=make_chain(spec))


class _Builder:
    """Mutable clause set for one chain with slot bookkeeping."""

    def __init__(self, clauses: list[list[int]], width: int | None, horn: bool):
        self.clauses = [list(cl) for cl in clauses]
        self.width = width
        self.horn = horn

    def insert(self, var: int, negated: bool, mult: int,
               order: list[int], label: str):
        placed = 0
        for idx in order:
            if placed == mult:
                break
            cl = self.clauses[idx]
            if self.width is not None and len(cl) >= self.width:
                continue
            if any(abs(lit) == var for lit in cl):
                continue
            if self.horn and not negated and any(lit > 0 for lit in cl):
                continue
            cl.append(-var if negated else var)
            placed += 1
        if placed < mult:
            raise CapacityError(
                f"cannot place {label}: {mult} occurrence(s) requested, only "
                f"{placed} clause(s) available (width budget {self.width}, "
                f"{len(self.clauses)} clauses"
                f"{', one positive literal per clause' if self.horn else ''})")


def _validate_spec(spec: CoupledFamilySpec):
    if spec.fragment not in FRAGMENTS:
        raise FragmentError(f"unknown fragment {spec.fragment!r}")
    if spec.e < 1 or spec.c < 1 or spec.d < 1 or spec.b < 1:
        raise ValueError("e, b, c, d must all be >= 1")
    if len(spec.digits) != spec.d or any(len(row) != spec.e for row in spec.digits):
        raise ValueError(f"digit matrix must be {spec.d}x{spec.e}")
    if any(x < 0 for row in spec.digits for x in row):
        raise ValueError("digits must be nonnegative")
    if not any(spec.digits[0]):
        raise ValueError("the dominant candidate (row 1) needs a nonzero digit row")
    if spec.coupler_value not in (0, 1):
        raise ValueError("coupler_value is 0 or 1")
    if spec.fragment == FRAGMENT_2SAT and spec.b != 1:
        raise FragmentError("width-2 chains admit couplers only once per side; b must be 1")
    if spec.fragment == FRAGMENT_XOR:
        if spec.b != 1:
            raise FragmentError(
                "parity cancels repeated occurrences: XOR couplers cannot be "
                "multiply connected; b must be 1")
        for i, row in enumerate(spec.digits, start=1):
            if sum(row) > 1:
                raise FragmentError(
                    f"candidate x{i}: XOR candidates may be connected to at "
                    f"most one clause overall, got digit row {row}")
    if spec.fragment in (FRAGMENT_HORN_COUPLER, FRAGMENT_HORN_DOMINANT):
        if spec.coupler_value != 1:
            raise FragmentError(
                "Horn chains have a single positive-capable clause; the "
                "coupler's positive occurrence fixes coupler_value = 1")
    if spec.fragment == FRAGMENT_HORN_DOMINANT:
        for i, row in enumerate(spec.digits, start=1):
            if any(x > 1 for x in row):
                raise FragmentError(
                    f"candidate x{i}: a positive Horn candidate can appear at "
                    f"most once per chain, got digit row {row}")
    m = spec.c + 1  # clauses per chain
    width = spec.width_budget()
    for j in range(1, spec.e + 1):
        a_j = sum(row[j - 1] for row in spec.digits)
        load = a_j
        mults = [a for a in (row[j - 1] for row in spec.digits) if a]
        if spec.e > 1:
            if j >= 2:
                load += spec.b
                mults.append(spec.b)
            if j <= spec.e - 1:
                load += 1
                mults.append(1)
        if width is not None:
            slots = capacity(m, width)
            if load > slots:
                raise CapacityError(
                    f"chain {j}: {load} insertions requested but an "
                    f"{m}-clause width-{width} chain has m*(k-2)+2 = {slots} slots")
        too_big = [mu for mu in mults if mu > m]
        if too_big:
            raise CapacityError(
                f"chain {j}: a variable is requested in {max(too_big)} clauses "
                f"but the chain has only {m}")


def synthesize(spec: CoupledFamilySpec, seed: int | None = None) -> SynthesizedInstance:
    """Build the coupled family instance for a spec.

    Variable layout: chain j's internals occupy (j-1)c+1 .. jc, the e-1
    couplers follow, then the d candidates; n = c*e + (e-1) + d in total.
    """
    _validate_spec(spec)
    e, b, c, d = spec.e, spec.b, spec.c, spec.d
    width = spec.width_budget()
    horn = spec.fragment in (FRAGMENT_HORN_COUPLER, FRAGMENT_HORN_DOMINANT)
    kind = XOR if spec.fragment == FRAGMENT_XOR else OR
    rng = random.Random(seed) if seed is not None else None

    coupler_vars = [c * e + j for j in range(1, e)]
    candidate_vars = [c * e + (e - 1) + i for i in range(1, d + 1)]
    neg_candidates = spec.candidate_polarity() < 0

    builders = []
    for j in range(1, e + 1):
        base = make_chain(ChainSpec(c), first_var=(j - 1) * c + 1)
        builders.append(_Builder(base, width, horn))

    def order_for(builder: _Builder) -> list[int]:
        idxs = list(range(len(builder.clauses)))
        if rng is not None:
            rng.shuffle(idxs)
        return idxs

    for j in range(1, e + 1):
        builder = builders[j - 1]
        # coupler out: y_j appears once in chain j
        if j <= e - 1:
            y = coupler_vars[j - 1]
            builder.insert(y, negated=(spec.coupler_value == 0), mult=1,
                           order=order_for(builder), label=f"coupler y{y} (chain {j})")
        # coupler in: y_{j-1} appears b times in chain j with the opposite sign
        if j >= 2:
            y = coupler_vars[j - 2]
            builder.insert(y, negated=(spec.coupler_value == 1), mult=b,
                           order=order_for(builder), label=f"coupler y{y} (chain {j})")
        for i in range(1, d + 1):
            a_ij = spec.digits[i - 1][j - 1]
            if a_ij:
                builder.insert(candidate_vars[i - 1], negated=neg_candidates,
                               mult=a_ij, order=order_for(builder),
                               label=f"candidate x{candidate_vars[i - 1]} (chain {j})")

    clauses: list[list[int]] = []
    chain_rows: dict[int, list[int]] = {}
    for j, builder in enumerate(builders, start=1):
        chain_rows[j] = list(range(len(clauses), len(clauses) + len(builder.clauses)))
        clauses.extend(builder.clauses)

    n = spec.num_vars()
    if kind == XOR:
        cnf = CNF.from_ints(n, xors=clauses)
    else:
        cnf = CNF.from_ints(n, ors=clauses)
    if len(cnf.clauses) != len(clauses):
        raise RuntimeError(
            f"synthesis invariant broken: {len(clauses)} chain clauses built, "
            f"{len(cnf.clauses)} in the CNF")

    return SynthesizedInstance(
        cnf=cnf,
        chain_rows=chain_rows,
        coupler_vars=coupler_vars,
        candidate_vars=candidate_vars,
        dominant_var=candidate_vars[0],
        expected_dominant_value=0 if neg_candidates else 1,
        candidate_polarity=spec.candidate_polarity(),
        spec=spec,
        seed=seed,
    )


def attach_dominant(chain: ChainSpec | int, block: DominantBlockSpec,
                    width: int | None = None) -> SynthesizedInstance:
    """Insert a fresh variable with one sign into ``multiplicity`` chain
    clauses, turning the unsatisfiable chain into a SAT instance whose new
    variable is dominant (value 1 for positive polarity, 0 for negative)."""
    if isinstance(chain, int):
        chain = ChainSpec(chain)
    builder = _Builder(make_chain(chain), width, horn=False)
    dom = chain.c + 1
    builder.insert(dom, negated=block.polarity < 0, mult=block.multiplicity,
                   order=list(range(len(builder.clauses))), label=f"dominant x{dom}")
    cnf = CNF.from_ints(dom, ors=builder.clauses)
    return SynthesizedInstance(
        cnf=cnf,
        chain_rows={1: list(range(len(cnf.clauses)))},
        coupler_vars=[],
        candidate_vars=[dom],
        dominant_var=dom,
        expected_dominant_value=1 if block.polarity > 0 else 0,
        candidate_polarity=block.polarity,
        spec=None,
    )


def synthesize_fragment_family(fragment: str, e: int, c: int, b: int = 2,
                               d: int = 1, seed: int | None = None) -> SynthesizedInstance:
    """Canonical family of a fragment: digit rows are chosen to respect the
    fragment's structural limits (all-ones for 3-SAT and Horn-coupler
    growth, a single first-chain connection for 2-SAT, a single last-chain
    connection for the positive Horn candidate and for XOR)."""
    if fragment in (FRAGMENT_2SAT, FRAGMENT_XOR):
        b = 1

    def unit_row(pos: int) -> tuple:
        return tuple(1 if j == pos else 0 for j in range(e))

    if fragment in (FRAGMENT_3SAT, FRAGMENT_HORN_COUPLER):
        rows = [tuple(1 for _ in range(e))]
        extra = unit_row(e - 1)
    elif fragment == FRAGMENT_2SAT:
        rows = [unit_row(0)]
        extra = unit_row(e - 1)
    elif fragment in (FRAGMENT_HORN_DOMINANT, FRAGMENT_XOR):
        rows = [unit_row(e - 1)]
        extra = unit_row(e - 1) if fragment == FRAGMENT_XOR else tuple([0] * e)
    else:
        raise FragmentError(f"unknown fragment {fragment!r}")
    while len(rows) < d:
        rows.append(extra)
    spec = CoupledFamilySpec(e=e, b=b, c=c, d=d, digits=tuple(rows),
                             fragment=fragment)
    return synthesize(spec, seed=seed)


def verify_dominance(inst: SynthesizedInstance,
                     cap: int = BRUTE_FORCE_CAP) -> bool:
    """Brute-force check that the designated variable is dominant with its
    expected value once the other candidates are held at their non-helping
    value (0 for positive candidates, 1 for negative ones)."""
    models = brute_force_models(inst.cnf, cap)
    if not models:
        return False
    off = 0 if inst.candidate_polarity > 0 else 1
    others = [v for v in inst.candidate_vars if v != inst.dominant_var]
    filtered = [m for m in models if all(m[v - 1] == off for v in others)]
    if not filtered:
        return False
    values = {m[inst.dominant_var - 1] for m in filtered}
    return values == {inst.expected_dominant_value}


def instance_to_dimacs(inst: SynthesizedInstance) -> str:
    """Annotated DIMACS: comments record chain membership (1-based clause
    numbers), coupler and candidate variables, and the family parameters."""
    comments = []
    if inst.spec is not None:
        s = inst.spec
        comments.append(
            f"family fragment={s.fragment} e={s.e} b={s.b} c={s.c} d={s.d} "
            f"coupler_value={s.coupler_value}"
            + (f" seed={inst.seed}" if inst.seed is not None else ""))
        for i, row in enumerate(s.digits, start=1):
            comments.append(
                f"digits x{inst.candidate_vars[i - 1]} = "
                + ",".join(str(x) for x in row))
    for j in sorted(inst.chain_rows):
        nums = " ".join(str(ci + 1) for ci in inst.chain_rows[j])
        comments.append(f"chain {j} clauses {nums}")
    comments.append("couplers " + (" ".join(map(str, inst.coupler_vars)) or "-"))
    comments.append("candidates " + " ".join(map(str, inst.candidate_vars)))
    comments.append(
        f"dominant {inst.dominant_var} expected {inst.expected_dominant_value}")
    return to_dimacs(inst.cnf, comments)


def spec_from_dict(data: dict) -> CoupledFamilySpec:
    fields = {k: data[k] for k in ("e", "b", "c", "d", "digits") if k in data}
    for opt in ("coupler_value", "fragment", "width"):
        if opt in data and data[opt] is not None:
            fields[opt] = data[opt]
    missing = {"e", "b", "c", "d", "digits"} - set(fields)
    if missing:
        raise ValueError(f"family config missing fields: {sorted(missing)}")
    fields["digits"] = tuple(tuple(row) for row in fields["digits"])
    return CoupledFamilySpec(**fields)


def load_family_config(path: str) -> tuple[CoupledFamilySpec, int | None]:
    with open(path) as fh:
        data = json.load(fh)
    return spec_from_dict(data), data.get("seed")
