"""CNF data model, DIMACS I/O, fragment classification, and reference solvers.

The DIMACS dialect accepted here is the classic one plus an XOR extension:
comment lines start with ``c``, the header is ``p cnf <num_vars> <num_clauses>``,
and a clause is a whitespace-separated run of nonzero integers terminated by
``0`` (clauses may span lines).  A clause whose first token is ``x`` is an XOR
clause whose literals must XOR to true, e.g. ``x 1 -2 3 0`` means
x1 XOR (NOT x2) XOR x3 = 1.

Everything in this module is a pure function over immutable values; the
reference solvers (brute force, 2-SAT implication graph, Horn unit
propagation, XOR Gaussian elimination) are the oracles the rest of the
package is validated against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from operator import or_, xor

OR = "or"
XOR = "xor"

BRUTE_FORCE_CAP = 24


class DimacsError(ValueError):
    """Malformed DIMACS input."""


class TriviallyUnsatError(DimacsError):
    """The input contains an empty clause (or an XOR clause that cancels to
    the unsatisfiable constant), so the formula is unsatisfiable before any
    solving happens.  Raised instead of silently dropping the clause."""


class BruteForceCapError(ValueError):
    """Enumeration request above the configured variable cap."""


class UnsatisfiableError(ValueError):
    """An operation that needs a satisfiable formula got an UNSAT one."""


@dataclass(frozen=True)
class Literal:
    var: int
    negated: bool = False

    def __post_init__(self):
        if self.var < 1:
            raise ValueError(f"variable index must be >= 1, got {self.var}")

    @staticmethod
    def from_int(lit: int) -> "Literal":
        if lit == 0:
            raise ValueError("0 is not a literal")
        return Literal(abs(lit), lit < 0)

    def to_int(self) -> int:
        return -self.var if self.negated else self.var

    def complement(self) -> "Literal":
        return Literal(self.var, not self.negated)

    def __repr__(self):
        return f"{'-' if self.negated else ''}{self.var}"


@dataclass(frozen=True)
class Clause:
    literals: tuple[Literal, ...]
    kind: str = OR

    def vars(self) -> set[int]:
        return {lit.var for lit in self.literals}

    def width(self) -> int:
        return len(self.literals)

    def positive_count(self) -> int:
        return sum(1 for lit in self.literals if not lit.negated)

    def negative_count(self) -> int:
        return sum(1 for lit in self.literals if lit.negated)

    def ints(self) -> tuple[int, ...]:
        return tuple(lit.to_int() for lit in self.literals)


@dataclass(frozen=True)
class CNF:
    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        for cl in self.clauses:
            for lit in cl.literals:
                if lit.var > self.num_vars:
                    raise ValueError(
                        f"literal {lit} exceeds num_vars={self.num_vars}")

    @staticmethod
    def from_ints(num_vars: int, ors=(), xors=(), normalize: bool = True) -> "CNF":
        """Build a CNF from signed-integer clause lists.

        ``ors`` / ``xors`` are iterables of int lists.  With ``normalize``
        the same clause normalization as the parser is applied.
        """
        clauses: list[Clause] = []
        for lits in ors:
            cl = make_or_clause([Literal.from_int(v) for v in lits], normalize)
            if cl is not None:
                clauses.append(cl)
        for lits in xors:
            cl = make_xor_clause([Literal.from_int(v) for v in lits], normalize)
            if cl is not None:
                clauses.append(cl)
        return CNF(num_vars, tuple(clauses))


# Fragment tags.  A CNF may carry several (e.g. both "2sat" and "horn").
@dataclass(frozen=True)
class FragmentTag:
    name: str
    k: int | None = None

    def __repr__(self):
        if self.name == "general":
            return f"GENERAL_K({self.k})"
        return self.name.upper().replace("-", "_")


TWO_SAT = FragmentTag("2sat")
HORN = FragmentTag("horn")
DUAL_HORN = FragmentTag("dual-horn")
XOR_TAG = FragmentTag("xor")


def general_k(k: int) -> FragmentTag:
    return FragmentTag("general", k)


@dataclass(frozen=True)
class SolveResult:
    status: str                      # "SAT" | "UNSAT"
    witness: tuple[int, ...] | None  # present iff SAT
    method: str

    @property
    def satisfiable(self) -> bool:
        return self.status == "SAT"


def make_or_clause(literals, normalize: bool = True) -> Clause | None:
    """Normalize an OR clause: deduplicate literals, drop tautologies.

    Returns None for a dropped tautology (with a warning).  An empty input
    clause is unsatisfiable by itself and raises TriviallyUnsatError.
    """
    if not literals:
        raise TriviallyUnsatError("empty OR clause: formula is trivially UNSAT")
    if not normalize:
        return Clause(tuple(literals), OR)
    seen: dict[tuple[int, bool], Literal] = {}
    by_var: dict[int, bool] = {}
    for lit in literals:
        if lit.var in by_var and by_var[lit.var] != lit.negated:
            warnings.warn(
                f"dropping tautological clause (contains both {lit.var} and -{lit.var})")
            return None
        by_var[lit.var] = lit.negated
        seen.setdefault((lit.var, lit.negated), lit)
    return Clause(tuple(seen.values()), OR)


def make_xor_clause(literals, normalize: bool = True) -> Clause | None:
    """Normalize an XOR clause: duplicated variables cancel pairwise and
    negations fold into the parity constant.

    The normalized form has distinct variables in ascending order, all
    positive except that the first literal is negated when the folded parity
    requirement is "XOR of variables = 0".  Returns None when the clause
    cancels to the always-true constant; raises TriviallyUnsatError when it
    cancels to the unsatisfiable one.
    """
    if not literals:
        raise TriviallyUnsatError("empty XOR clause: formula is trivially UNSAT")
    if not normalize:
        return Clause(tuple(literals), XOR)
    parity = 1  # required value of XOR over the plain variables
    counts: dict[int, int] = {}
    for lit in literals:
        counts[lit.var] = counts.get(lit.var, 0) + 1
        if lit.negated:
            parity ^= 1
    vars_left = sorted(v for v, cnt in counts.items() if cnt % 2 == 1)
    if not vars_left:
        if parity == 0:
            warnings.warn("dropping always-true XOR clause (all variables cancel)")
            return None
        raise TriviallyUnsatError(
            "XOR clause cancels to the unsatisfiable constant")
    lits = [Literal(v) for v in vars_left]
    if parity == 0:
        lits[0] = Literal(vars_left[0], True)
    return Clause(tuple(lits), XOR)


def parse_dimacs(text: str | bytes, normalize: bool = True) -> CNF:
    """Parse DIMACS CNF text (with the ``x`` XOR-clause extension).

    Raises DimacsError on malformed input and TriviallyUnsatError when an
    empty clause makes the formula unsatisfiable at parse time.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    num_vars = None
    declared_clauses = None
    raw_clauses: list[tuple[str, list[int]]] = []
    current: list[int] = []
    current_kind = OR
    in_clause = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {stripped!r}")
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed header {stripped!r}")
            if num_vars < 0 or declared_clauses < 0:
                raise DimacsError(f"line {lineno}: negative counts in header")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause data before header")
        for tok in stripped.split():
            if tok == "x":
                if in_clause:
                    raise DimacsError(
                        f"line {lineno}: 'x' marker inside an unterminated clause")
                current_kind = XOR
                in_clause = True
                continue
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"line {lineno}: bad token {tok!r}")
            if lit == 0:
                raw_clauses.append((current_kind, current))
                current = []
                current_kind = OR
                in_clause = False
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(
                        f"line {lineno}: literal {lit} exceeds num_vars={num_vars}")
                current.append(lit)
                in_clause = True
    if in_clause or current:
        raise DimacsError("last clause not terminated by 0")
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if declared_clauses != len(raw_clauses):
        raise DimacsError(
            f"header declares {declared_clauses} clauses, found {len(raw_clauses)}")
    clauses: list[Clause] = []
    for kind, lits in raw_clauses:
        literals = [Literal.from_int(v) for v in lits]
        cl = (make_or_clause(literals, normalize) if kind == OR
              else make_xor_clause(literals, normalize))
        if cl is not None:
            clauses.append(cl)
    return CNF(num_vars, tuple(clauses))


def to_dimacs(cnf: CNF, comments: list[str] | None = None) -> str:
    """Serialize to DIMACS text; ``comments`` become leading ``c`` lines."""
    lines = [f"c {c}" if c else "c" for c in (comments or [])]
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    for cl in cnf.clauses:
        prefix = "x " if cl.kind == XOR else ""
        lines.append(prefix + " ".join(str(v) for v in cl.ints()) + " 0")
    return "\n".join(lines) + "\n"


def evaluate(cnf: CNF, assignment) -> bool:
    """True iff every OR clause has a satisfied literal and every XOR
    clause's literals XOR to true.  Tolerates non-normalized clauses."""
    if len(assignment) != cnf.num_vars:
        raise ValueError(
            f"assignment length {len(assignment)} != num_vars {cnf.num_vars}")
    for cl in cnf.clauses:
        if cl.kind == OR:
            if not any(assignment[lit.var - 1] != (1 if lit.negated else 0)
                       for lit in cl.literals):
                return False
        else:
            acc = 0
            for lit in cl.literals:
                acc ^= assignment[lit.var - 1] ^ (1 if lit.negated else 0)
            if acc != 1:
                return False
    return True


def classify(cnf: CNF) -> set[FragmentTag]:
    """Fragment tags of a CNF (several may apply at once).

    TWO_SAT / HORN / DUAL_HORN require an all-OR formula; XOR requires an
    all-XOR one; GENERAL_K(k) records the maximum clause width whenever the
    formula has at least one OR clause (or is mixed).
    """
    tags: set[FragmentTag] = set()
    or_clauses = [cl for cl in cnf.clauses if cl.kind == OR]
    xor_clauses = [cl for cl in cnf.clauses if cl.kind == XOR]
    all_or = not xor_clauses
    if all_or and cnf.clauses and all(cl.width() <= 2 for cl in or_clauses):
        tags.add(TWO_SAT)
    if all_or and cnf.clauses and all(cl.positive_count() <= 1 for cl in or_clauses):
        tags.add(HORN)
    if all_or and cnf.clauses and all(cl.negative_count() <= 1 for cl in or_clauses):
        tags.add(DUAL_HORN)
    if xor_clauses and not or_clauses:
        tags.add(XOR_TAG)
    if or_clauses:
        tags.add(general_k(max(cl.width() for cl in cnf.clauses)))
    return tags


def _compiled_masks(cnf: CNF, n: int):
    """Per-clause bitmasks with var i on bit (n - i), so that ascending
    integer order of assignments equals lexicographic tuple order."""
    ors = []
    xors = []
    for cl in cnf.clauses:
        if cl.kind == OR:
            pos = neg = 0
            for lit in cl.literals:
                bit = 1 << (n - lit.var)
                if lit.negated:
                    neg |= bit
                else:
                    pos |= bit
            ors.append((pos, neg))
        else:
            mask = 0
            parity = 1
            for lit in cl.literals:
                mask ^= 1 << (n - lit.var)  # duplicated vars cancel, as XOR does
                if lit.negated:
                    parity ^= 1
            xors.append((mask, parity))
    return ors, xors


SLICE_BITS = 16


def low_columns(n: int) -> tuple[int, int, list[int]]:
    """Bit-sliced enumeration of the 2^n points of {0,1}^n, 2^L at a time
    with L = min(n, SLICE_BITS).  Point a is the integer with variable i on
    bit n - i, so ascending integers are lexicographic tuples.  A chunk
    holds the 2^L points that share a's bits above L, one python int with
    point k of the chunk on bit k.  Returns L, the full chunk bitset and,
    for each low bit p < L, its column: the chunk bitset of the points whose
    bit p is 1."""
    low = min(n, SLICE_BITS)
    full = (1 << (1 << low)) - 1
    # a block of 2^p zero bits then 2^p one bits, repeated over the chunk
    return low, full, [(((1 << (1 << p)) - 1) << (1 << p))
                       * (full // ((1 << (2 << p)) - 1)) for p in range(low)]


def sliced_points(n: int, accept) -> list[tuple[int, ...]]:
    """The points of {0,1}^n, in lexicographic order, that ``accept(high)``
    admits: it returns the bitset of the chunk whose bits above L are
    ``high`` (see ``low_columns``)."""
    low = min(n, SLICE_BITS)
    shifts = range(n - 1, -1, -1)
    points = []
    for high in range(1 << (n - low)):
        bits = format(accept(high), "b")  # chunk bit k at index top - k
        top, base = len(bits) - 1, high << low
        at = bits.rfind("1")
        while at >= 0:
            a = base | (top - at)
            points.append(tuple((a >> s) & 1 for s in shifts))
            at = bits.rfind("1", 0, at)
    return points


def brute_force_models(cnf: CNF, cap: int = BRUTE_FORCE_CAP) -> list[tuple[int, ...]]:
    """All satisfying assignments, in lexicographic order.

    Enumerates 2^n assignments (bit-sliced, 2^16 per chunk), so n is
    limited by ``cap``; exceeding it is an error, never silent truncation.
    """
    n = cnf.num_vars
    if n > cap:
        raise BruteForceCapError(f"{n} variables exceeds brute-force cap {cap}")
    ors, xors = _compiled_masks(cnf, n)
    low, full, cols = low_columns(n)

    def below(mask: int) -> list[int]:
        return [p for p in range(low) if mask >> p & 1]

    # A clause splits into its literals above L, constant within a chunk,
    # and the chunk bitset that its literals below L satisfy (for an XOR
    # clause: the bitset of odd low parity).
    or_sets = [(pos >> low, neg >> low,
                reduce(or_, [cols[p] for p in below(pos)]
                       + [full ^ cols[p] for p in below(neg)], 0))
               for pos, neg in ors]
    xor_sets = [(mask >> low, parity, reduce(xor, [cols[p] for p in below(mask)], 0))
                for mask, parity in xors]

    def accept(high: int) -> int:
        ok = full
        for pos, neg, sat in or_sets:
            if not (high & pos or ~high & neg):
                ok &= sat
        for mask, parity, odd in xor_sets:
            # the low literals' parity must make up the rest
            ok &= full ^ odd if (high & mask).bit_count() & 1 == parity else odd
        return ok

    return sliced_points(n, accept)


def dominant_variables(cnf: CNF, cap: int = BRUTE_FORCE_CAP) -> dict[int, frozenset[int]]:
    """Map var -> set of values it takes across all models.

    A variable is dominant iff its set is a singleton.  Raises
    UnsatisfiableError on UNSAT input (dominance is undefined there).
    """
    models = brute_force_models(cnf, cap)
    if not models:
        raise UnsatisfiableError("formula is UNSAT; dominance is undefined")
    out: dict[int, frozenset[int]] = {}
    for i in range(cnf.num_vars):
        out[i + 1] = frozenset(m[i] for m in models)
    return out


def solve_2sat(cnf: CNF) -> SolveResult:
    """2-SAT via the implication graph and Tarjan's SCC algorithm."""
    tags = classify(cnf)
    if cnf.clauses and TWO_SAT not in tags:
        raise ValueError("not a 2-SAT formula")
    n = cnf.num_vars
    # literal node: 2*(v-1) for positive, 2*(v-1)+1 for negated
    adj: list[list[int]] = [[] for _ in range(2 * n)]

    def node(lit: Literal) -> int:
        return 2 * (lit.var - 1) + (1 if lit.negated else 0)

    for cl in cnf.clauses:
        lits = cl.literals
        if len(lits) == 1:
            a = lits[0]
            adj[node(a.complement())].append(node(a))
        else:
            a, b = lits
            adj[node(a.complement())].append(node(b))
            adj[node(b.complement())].append(node(a))

    comp = _tarjan_scc(adj)
    assignment = [0] * n
    for v in range(n):
        if comp[2 * v] == comp[2 * v + 1]:
            return SolveResult("UNSAT", None, "2sat-scc")
        # Tarjan ids are in reverse topological order; the later component
        # in topological order (smaller id) is the value to commit to.
        assignment[v] = 1 if comp[2 * v] < comp[2 * v + 1] else 0
    return SolveResult("SAT", tuple(assignment), "2sat-scc")


def _tarjan_scc(adj: list[list[int]]) -> list[int]:
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    comp_count = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = comp_count
                    if w == v:
                        break
                comp_count += 1
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comp


def solve_horn_unit_prop(cnf: CNF) -> SolveResult:
    """Horn-SAT by unit propagation; the SAT witness is the minimal model."""
    if HORN not in classify(cnf) and cnf.clauses:
        raise ValueError("not a Horn formula")
    value = [0] * (cnf.num_vars + 1)  # 1-indexed
    clause_pos: list[int | None] = []
    clause_negs: list[list[int]] = []
    watch: dict[int, list[int]] = {}
    queue: list[int] = []
    for ci, cl in enumerate(cnf.clauses):
        pos = None
        negs = []
        for lit in cl.literals:
            if lit.negated:
                negs.append(lit.var)
            else:
                pos = lit.var
        clause_pos.append(pos)
        clause_negs.append(negs)
        for v in negs:
            watch.setdefault(v, []).append(ci)
        if not negs:
            if pos is None:
                return SolveResult("UNSAT", None, "horn-unit-prop")
            if not value[pos]:
                value[pos] = 1
                queue.append(pos)
    pending = [len(negs) for negs in clause_negs]
    while queue:
        v = queue.pop()
        for ci in watch.get(v, ()):
            pending[ci] -= 1
            if pending[ci] == 0:
                pos = clause_pos[ci]
                if pos is None:
                    return SolveResult("UNSAT", None, "horn-unit-prop")
                if not value[pos]:
                    value[pos] = 1
                    queue.append(pos)
    witness = tuple(value[1:])
    return SolveResult("SAT", witness, "horn-unit-prop")


def solve_xor_gauss(cnf: CNF) -> SolveResult:
    """XOR-SAT by Gaussian elimination over GF(2) on bitmask rows."""
    if any(cl.kind != XOR for cl in cnf.clauses):
        raise ValueError("not an XOR formula")
    n = cnf.num_vars
    rows: list[int] = []  # bits 0..n-1 = vars 1..n, bit n = constant
    for cl in cnf.clauses:
        mask = 0
        parity = 1
        for lit in cl.literals:
            mask ^= 1 << (lit.var - 1)
            if lit.negated:
                parity ^= 1
        rows.append(mask | (parity << n))
    pivot_of_col: dict[int, int] = {}
    reduced: list[int] = []
    var_mask = (1 << n) - 1
    for row in rows:
        # Clear pivot columns from the row's low end until a fresh pivot
        # emerges; each XOR strictly raises the lowest set bit.
        while row & var_mask:
            col = ((row & var_mask) & -(row & var_mask)).bit_length() - 1
            if col not in pivot_of_col:
                break
            row ^= reduced[pivot_of_col[col]]
        if row & var_mask:
            col = ((row & var_mask) & -(row & var_mask)).bit_length() - 1
            pivot_of_col[col] = len(reduced)
            reduced.append(row)
        elif row >> n:
            return SolveResult("UNSAT", None, "xor-gauss")
    assignment = [0] * n
    # free variables default to 0; pivots back-substitute
    for col in sorted(pivot_of_col, reverse=True):
        row = reduced[pivot_of_col[col]]
        acc = (row >> n) & 1
        for other in range(col + 1, n):
            if row & (1 << other):
                acc ^= assignment[other]
        assignment[col] = acc
    return SolveResult("SAT", tuple(assignment), "xor-gauss")
