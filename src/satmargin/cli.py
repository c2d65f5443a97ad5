"""Command-line front end: classify, reduce, synth, eliminate, margin,
solve-horn, and the experiment sweep runner.

Exit codes: 0 on success, 1 on domain errors (unsatisfiable where a model
was required, capacity violations, row blow-up), 2 on usage errors.
Every command is deterministic given its inputs and --seed; rationals are
printed exactly as p/q with float companions only where a column says so.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .cnf import (CNF, BRUTE_FORCE_CAP, TriviallyUnsatError, classify,
                  brute_force_models, parse_dimacs, solve_2sat,
                  solve_horn_unit_prop, solve_xor_gauss,
                  TWO_SAT, HORN, XOR_TAG)
from .chains import load_family_config, instance_to_dimacs, synthesize
from .elimination import RowBlowupError, fm_project
from .horn_lp import solve_horn_margin
from .margin import decision_margin, family_margin, margin_decay_sweep
from .reduction import cnf_to_system, format_system

EXPERIMENT_HEADER = ["instance_id", "family", "fragment", "n", "e", "b", "c",
                     "d", "a1", "a2", "b_min", "b_max", "margin",
                     "margin_float", "agreed"]


class DomainError(Exception):
    pass


def _read_cnf(path: str) -> CNF:
    with open(path, "rb") as fh:
        return parse_dimacs(fh.read())


def _tag_string(tags) -> str:
    return ",".join(sorted(repr(t) for t in tags)) or "(none)"


def cmd_classify(args) -> int:
    try:
        cnf = _read_cnf(args.file)
    except TriviallyUnsatError:
        print("EMPTY-CLAUSE; UNSAT")
        return 0
    tags = classify(cnf)
    if XOR_TAG in tags:
        status = solve_xor_gauss(cnf).status
    elif TWO_SAT in tags:
        status = solve_2sat(cnf).status
    elif HORN in tags:
        status = solve_horn_unit_prop(cnf).status
    elif cnf.num_vars <= args.brute_cap:
        status = "SAT" if brute_force_models(cnf, args.brute_cap) else "UNSAT"
    else:
        status = "undecided at desk scale"
    print(f"{_tag_string(tags)}; {status}")
    return 0


def cmd_reduce(args) -> int:
    cnf = _read_cnf(args.file)
    sys.stdout.write(format_system(cnf_to_system(cnf)))
    return 0


def _synthesize_config(args):
    """The family instance of ``args.config``; --seed overrides its seed."""
    spec, seed = load_family_config(args.config)
    return synthesize(spec, seed=args.seed if args.seed is not None else seed)


def cmd_synth(args) -> int:
    text = instance_to_dimacs(_synthesize_config(args))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_keep(text: str) -> set[int]:
    try:
        return {int(tok) for tok in text.split(",") if tok.strip()}
    except ValueError:
        raise DomainError(f"bad variable list {text!r}")


def cmd_eliminate(args) -> int:
    cnf = _read_cnf(args.file)
    system = cnf_to_system(cnf)
    keep = _parse_keep(args.keep)
    projected, trace = fm_project(system, keep, order=args.order,
                                  max_rows=args.max_rows,
                                  lp_redundancy=args.lp_redundancy)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(trace.to_text())
    sys.stdout.write(format_system(projected))
    return 0


def _margin_csv(report, out) -> None:
    writer = csv.writer(out)
    writer.writerow(["record", "line", "lower", "upper", "margin",
                     "margin_float", "coeff_ratio_bound"])
    for line in sorted(report.per_line, key=lambda l: l.fixed_coords):
        interval = report.per_line[line]
        fixed = " ".join(f"x{v}={val}" for v, val in line.fixed_coords)
        if interval is None:
            writer.writerow(["line", fixed, "EMPTY", "EMPTY", "", "", ""])
        else:
            writer.writerow(["line", fixed, str(interval[0]), str(interval[1]),
                             "", "", ""])
    margin = "" if report.margin is None else str(report.margin)
    margin_float = "" if report.margin is None else repr(float(report.margin))
    bound = "" if report.coeff_ratio_bound is None else str(report.coeff_ratio_bound)
    writer.writerow(["margin", "", "", "", margin, margin_float, bound])


def cmd_margin(args) -> int:
    options = dict(order=args.order, max_rows=args.max_rows,
                   line_cap=args.line_cap)
    if args.config:
        report, _ = family_margin(_synthesize_config(args),
                                  aggregate_only=not args.full, **options)
    else:
        if args.dominant is None:
            raise DomainError("file mode needs --dominant")
        cnf = _read_cnf(args.file)
        system = cnf_to_system(cnf)
        dominant = args.dominant
        if args.keep:
            keep = _parse_keep(args.keep)
        else:
            # default projection plane: the dominant variable plus one companion
            companion = next((v for v in range(1, cnf.num_vars + 1)
                              if v != dominant), None)
            keep = {companion} if companion else set()
        keep.add(dominant)
        report = decision_margin(system, dominant, args.infeasible_value,
                                 keep, **options)
    _margin_csv(report, sys.stdout)
    return 0


def cmd_solve_horn(args) -> int:
    cnf = _read_cnf(args.file)
    report = solve_horn_margin(cnf)
    if report.result.satisfiable:
        print("accept")
        lits = [v if val else -v
                for v, val in enumerate(report.result.witness, start=1)]
        print("v " + " ".join(str(l) for l in lits) + " 0")
    else:
        print("reject")
    return 0


def _sweep_rows(sweep: dict, seed):
    fragment = sweep["fragment"]
    e_lo, e_hi = sweep.get("e_range", [1, 4])
    rows = margin_decay_sweep(
        fragment, range(e_lo, e_hi + 1), b=sweep.get("b", 2),
        c=sweep.get("c", 3), d=sweep.get("d", 1),
        aggregate_only=sweep.get("aggregate_only", True), seed=seed)
    family = sweep.get("name", f"{fragment}-sweep")
    out = []
    for row in rows:
        agreed = ""
        if fragment.startswith("horn"):
            agreed = solve_horn_margin(row.instance.cnf).agreed_with_unit_prop
        out.append([f"{family}-e{row.e}", family, fragment, row.n, row.e,
                    row.b, row.c, row.d, row.a1,
                    "" if row.a2 is None else row.a2, row.b_min, row.b_max,
                    str(row.margin), repr(row.margin_float), agreed])
    return out


def cmd_experiment(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    sweeps = config["sweeps"] if "sweeps" in config else [config]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(EXPERIMENT_HEADER)
    for sweep in sweeps:
        for row in _sweep_rows(sweep, args.seed):
            writer.writerow(row)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satmargin",
        description="CNF-to-polytope reduction, chain-family synthesis, exact "
                    "projection, and decision-margin analysis")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for shuffled insertion placement")
    parser.add_argument("--brute-cap", type=int, default=BRUTE_FORCE_CAP,
                        help="brute-force enumeration variable cap")
    parser.add_argument("--max-rows", type=int, default=100_000,
                        help="row blow-up limit for elimination")
    parser.add_argument("--line-cap", type=int, default=1 << 12,
                        help="decision line count cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="fragment tags + SAT/UNSAT by the matching solver")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reduce", help="dump the clause inequality system")
    p.add_argument("file")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("synth", help="synthesize a coupled family instance")
    p.add_argument("config", help="JSON family spec (fields e, b, c, d, digits, ...)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eliminate", help="project a file's system onto kept variables")
    p.add_argument("file")
    p.add_argument("--keep", required=True, help="comma-separated variable list")
    p.add_argument("--order", choices=["greedy", "given"], default="greedy")
    p.add_argument("--lp-redundancy", action="store_true",
                   help="LP-prune redundant rows after every step (slow, exact)")
    p.add_argument("--trace", default=None, help="write the elimination trace here")
    p.set_defaults(func=cmd_eliminate)

    p = sub.add_parser("margin", help="decision margin report as CSV")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--config", default=None, help="family spec JSON instead of a file")
    p.add_argument("--full", action="store_true",
                   help="project the full clause system, not just the aggregate row")
    p.add_argument("--dominant", type=int, default=None)
    p.add_argument("--infeasible-value", type=int, choices=[0, 1], default=0)
    p.add_argument("--keep", default=None, help="comma-separated companion variables")
    p.add_argument("--order", choices=["greedy", "given"], default="greedy")
    p.set_defaults(func=cmd_margin)

    p = sub.add_parser("solve-horn", help="LP-estimation Horn solver: accept/reject")
    p.add_argument("file")
    p.set_defaults(func=cmd_solve_horn)

    p = sub.add_parser("experiment", help="run margin decay sweeps, emit CSV")
    p.add_argument("config", help="sweep config JSON")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "margin" and (args.file is None) == (args.config is None):
        parser.error("margin needs exactly one of FILE or --config")
    try:
        return args.func(args)
    except (ValueError, RowBlowupError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
