"""Write the golden CLI corpus: input files and a manifest of expected runs.

    PYTHONPATH=src python tests/golden/generate.py            # every entry
    PYTHONPATH=src python tests/golden/generate.py NAME ...   # only these

Each manifest entry holds an argv for ``satmargin.cli.main`` and the exit
code, standard output, standard error and written files that the current
tree produces for it.  In an argv, ``{in}`` stands for the ``inputs``
directory next to this script and ``{out}`` for a scratch directory that
receives the files a run writes (``--trace``).  ``tests/test_golden.py``
replays every entry and compares it byte for byte.

The corpus covers the CLI runs that reach the simplex: ``solve-horn`` on
Horn files (SAT and UNSAT, ``p cnf 0 0``, n up to 120), and ``eliminate
--lp-redundancy`` with and without ``--trace``, with ``--order given``, and
with a small ``--max-rows`` that ends in exit 1.

An entry whose expected output changes on purpose is regenerated by name,
and the change is listed with its reason; regenerating the whole corpus to
make the replay pass would hide exactly what it is there to show.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from satmargin import cli

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
MANIFEST = HERE / "manifest.json"


def dimacs(n: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, cl)) + " 0" for cl in clauses]
    return "\n".join(lines) + "\n"


def planted_horn(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """m Horn clauses, widths 1 to 4, all satisfied by a hidden assignment
    with about n/2 ones: a drawn clause that the assignment violates is
    redrawn."""
    ones = set(rng.sample(range(1, n + 1), n // 2))
    clauses = []
    while len(clauses) < m:
        lits = [-v for v in rng.sample(range(1, n + 1), rng.randint(1, 4))]
        if rng.random() < 0.75:
            lits[0] = -lits[0]
        if any((l > 0) == (abs(l) in ones) for l in lits):
            clauses.append(lits)
    return clauses


def random_horn(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """Unplanted Horn clauses, widths 1 to 4, a positive first literal with
    probability 0.7, so that both verdicts occur."""
    clauses = []
    for _ in range(m):
        lits = [-v for v in rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))]
        if rng.random() < 0.7:
            lits[0] = -lits[0]
        clauses.append(lits)
    return clauses


def random_cnf(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """Clauses of width 1 to 3 over distinct variables, random signs."""
    return [[v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, n + 1), rng.randint(1, 3))]
            for _ in range(m)]


EQ1 = [[1, -2, -4], [1, -3], [2, 3], [-2, 4]]


def inputs() -> dict[str, str]:
    """File name -> DIMACS text, each drawn from its own seeded stream."""
    files = {
        "horn-empty.cnf": "p cnf 0 0\n",
        "horn-chain-sat.cnf": dimacs(4, [[1], [-1, 2], [-2, 3], [-3, -4]]),
        "horn-chain-unsat.cnf": dimacs(3, [[1], [-1, 2], [-2, 3], [-3]]),
        "horn-contradiction.cnf": dimacs(1, [[1], [-1]]),
        "horn-negative-only.cnf": dimacs(5, [[-1, -2], [-3], [-2, -4, -5]]),
        "horn-units.cnf": dimacs(4, [[1], [2], [3], [4]]),
    }
    for n in (10, 20, 30, 40, 60, 80, 100, 120):
        rng = random.Random(f"golden/planted/{n}")
        files[f"horn-planted-n{n}.cnf"] = dimacs(n, planted_horn(rng, n, 2 * n))
    for n, seed in ((10, 1), (10, 2), (20, 1), (20, 2), (40, 1), (40, 2),
                    (80, 1), (120, 1), (120, 2), (120, 3)):
        rng = random.Random(f"golden/random/{n}/{seed}")
        files[f"horn-random-n{n}-{seed}.cnf"] = dimacs(n, random_horn(rng, n, n))
    files["eq1.cnf"] = dimacs(4, EQ1)
    for n, m, seed in ((5, 6, 1), (6, 6, 1), (6, 8, 2), (7, 7, 1), (8, 8, 1),
                          (8, 12, 1), (10, 10, 1)):
        rng = random.Random(f"golden/cnf/{n}/{m}/{seed}")
        files[f"cnf-n{n}-m{m}-{seed}.cnf"] = dimacs(n, random_cnf(rng, n, m))
    files["cnf-unsat.cnf"] = dimacs(3, [[1, 2], [-1, 2], [1, -2], [-1, -2], [3]])
    return files


def entries(files: dict[str, str]) -> dict[str, list[str]]:
    """Entry name -> argv."""
    runs = {f"solve-horn/{name[:-4]}": ["solve-horn", "{in}/" + name]
            for name in sorted(files) if name.startswith("horn-")}
    elim = [
        ("eq1-keep1", ["eq1.cnf", "--keep", "1"]),
        ("eq1-keep12-given", ["eq1.cnf", "--keep", "1,2", "--order", "given"]),
        ("n5-keep12", ["cnf-n5-m6-1.cnf", "--keep", "1,2"]),
        ("n6-keep23", ["cnf-n6-m6-1.cnf", "--keep", "2,3"]),
        ("n6-keep1-given", ["cnf-n6-m8-2.cnf", "--keep", "1", "--order", "given"]),
        ("n7-keep12", ["cnf-n7-m7-1.cnf", "--keep", "1,2"]),
        ("n8-keep12", ["cnf-n8-m8-1.cnf", "--keep", "1,2"]),
        ("n8-keep123", ["cnf-n8-m12-1.cnf", "--keep", "1,2,3"]),
        ("n10-keep12", ["cnf-n10-m10-1.cnf", "--keep", "1,2"]),
        ("unsat-keep1", ["cnf-unsat.cnf", "--keep", "1"]),
    ]
    for name, (path, *rest) in elim:
        argv = ["eliminate", "{in}/" + path, *rest, "--lp-redundancy"]
        runs[f"eliminate/{name}"] = argv
        runs[f"eliminate/{name}-trace"] = argv + ["--trace", "{out}/trace.txt"]
    runs["eliminate/eq1-keep1-no-lp-trace"] = [
        "eliminate", "{in}/eq1.cnf", "--keep", "1", "--trace", "{out}/trace.txt"]
    for cap in (3, 10, 17, 18):
        runs[f"eliminate/n10-keep12-max-rows-{cap}"] = [
            "--max-rows", str(cap), "eliminate", "{in}/cnf-n10-m10-1.cnf",
            "--keep", "1,2", "--lp-redundancy"]
    runs["eliminate/n7-keep12-given-max-rows-6-trace"] = [
        "--max-rows", "6", "eliminate", "{in}/cnf-n7-m7-1.cnf", "--keep", "1,2",
        "--order", "given", "--lp-redundancy", "--trace", "{out}/trace.txt"]
    return runs


def replay(argv: list[str], out_dir: Path) -> dict:
    """Run one entry through ``cli.main``; what it printed, returned and
    wrote, with file names relative to ``out_dir``."""
    real = [a.replace("{in}", str(INPUTS)).replace("{out}", str(out_dir))
            for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(real)
    written = {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": written}


def main(names: list[str]) -> int:
    files = inputs()
    runs = entries(files)
    unknown = [n for n in names if n not in runs]
    if unknown:
        print(f"unknown entries: {unknown}", file=sys.stderr)
        return 2
    INPUTS.mkdir(exist_ok=True)
    for name, text in files.items():
        (INPUTS / name).write_text(text)
    manifest = json.loads(MANIFEST.read_text()) if names else {}
    for name in names or runs:
        with tempfile.TemporaryDirectory() as tmp:
            manifest[name] = {"argv": runs[name], **replay(runs[name], Path(tmp))}
    MANIFEST.write_text(json.dumps(dict(sorted(manifest.items())), indent=1) + "\n")
    print(f"{len(names or runs)} entries written, {len(manifest)} in the manifest")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
