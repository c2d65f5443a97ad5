import csv
import io
import json
from fractions import Fraction

import pytest

from satmargin.cli import main, EXPERIMENT_HEADER

from conftest import EQ1_DIMACS

FAMILY_JSON = {"e": 2, "b": 2, "c": 2, "d": 1, "digits": [[1, 1]]}


@pytest.fixture
def eq1_file(tmp_path):
    path = tmp_path / "eq1.cnf"
    path.write_text(EQ1_DIMACS)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_eq1(self, capsys, eq1_file):
        code, out, _ = run(capsys, "classify", eq1_file)
        assert code == 0
        assert out.strip() == "GENERAL_K(3); SAT"

    def test_horn_unsat(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        tags, status = out.strip().split("; ")
        assert status == "UNSAT"
        assert "HORN" in tags and "2SAT" in tags

    def test_xor(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 1\nx 1 2 0\n")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0 and out.strip() == "XOR; SAT"

    def test_empty_clause(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 1\n0\n")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0 and "UNSAT" in out

    @pytest.mark.parametrize("clauses, status", [
        ("1 2 3 0\n-1 -2 -3 0\n", "SAT"),
        # all eight sign patterns on three variables
        ("".join(f"{a} {b} {c} 0\n" for a in (1, -1) for b in (2, -2)
                 for c in (3, -3)), "UNSAT")])
    def test_general_3cnf_within_brute_cap(self, capsys, tmp_path,
                                           clauses, status):
        path = tmp_path / "f.cnf"
        path.write_text(f"p cnf 3 {clauses.count(' 0')}\n{clauses}")
        code, out, _ = run(capsys, "--brute-cap", "3", "classify", str(path))
        assert (code, out) == (0, f"GENERAL_K(3); {status}\n")

    @pytest.mark.parametrize("clauses, status", [
        ("1 0\n-1 -2 3 0\n-3 0\n", "SAT"),
        ("1 0\n2 0\n-1 -2 3 0\n-3 0\n", "UNSAT")])
    def test_horn_not_2sat(self, capsys, tmp_path, clauses, status):
        # width 3, so unit propagation decides it, not the 2-SAT solver
        path = tmp_path / "f.cnf"
        path.write_text(f"p cnf 3 {clauses.count(' 0')}\n{clauses}")
        code, out, _ = run(capsys, "classify", str(path))
        assert (code, out) == (0, f"GENERAL_K(3),HORN; {status}\n")

    def test_undecided_above_cap(self, capsys, tmp_path):
        clauses = ["1 2 3 0"] * 1
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 30 1\n1 2 3 0\n")
        code, out, _ = run(capsys, "--brute-cap", "24", "classify", str(path))
        assert code == 0 and "undecided at desk scale" in out


class TestReduce:
    def test_eq3_exact(self, capsys, eq1_file):
        code, out, _ = run(capsys, "reduce", eq1_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "-1 <= x1 - x2 - x4 <= 1"
        assert lines[1] == "0 <= x1 - x3 <= 1"
        assert lines[2] == "1 <= x2 + x3 <= 2"
        assert lines[3] == "0 <= -x2 + x4 <= 1"

    def test_unit(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 1\n1 0\n")
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0 and out.splitlines()[0] == "1 <= x1 <= 1"

    def test_empty(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 0\n")
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0 and out.strip() == ""


class TestSynth:
    def test_deterministic_output(self, capsys, tmp_path):
        cfg = tmp_path / "family.json"
        cfg.write_text(json.dumps(FAMILY_JSON))
        code1, out1, _ = run(capsys, "--seed", "3", "synth", str(cfg))
        code2, out2, _ = run(capsys, "--seed", "3", "synth", str(cfg))
        assert code1 == code2 == 0
        assert out1 == out2
        assert "p cnf 6 " in out1 and "c dominant" in out1

    def test_output_file(self, capsys, tmp_path):
        cfg = tmp_path / "family.json"
        cfg.write_text(json.dumps(FAMILY_JSON))
        out_path = tmp_path / "inst.cnf"
        code, _, _ = run(capsys, "synth", str(cfg), "-o", str(out_path))
        assert code == 0 and out_path.read_text().startswith("c family")

    def test_capacity_violation_exit(self, capsys, tmp_path):
        bad = dict(FAMILY_JSON, b=5)
        cfg = tmp_path / "family.json"
        cfg.write_text(json.dumps(bad))
        code, _, err = run(capsys, "synth", str(cfg))
        assert code == 1
        assert "clause" in err  # capacity diagnostic names the clause budget

    def test_e1_degenerate(self, capsys, tmp_path):
        cfg = tmp_path / "family.json"
        cfg.write_text(json.dumps({"e": 1, "b": 2, "c": 2, "d": 1,
                                   "digits": [[1]]}))
        code, out, _ = run(capsys, "synth", str(cfg))
        assert code == 0 and "p cnf 3 " in out


class TestEliminate:
    def test_keep_x1(self, capsys, eq1_file, tmp_path):
        trace_path = tmp_path / "trace.txt"
        code, out, _ = run(capsys, "eliminate", eq1_file, "--keep", "1",
                           "--trace", str(trace_path))
        assert code == 0
        assert out.splitlines()[0] == "1/3 <= x1 <= 1"
        trace = trace_path.read_text()
        assert "step x" in trace

    def test_blowup_exit(self, capsys, eq1_file):
        code, _, err = run(capsys, "--max-rows", "1", "eliminate", eq1_file,
                           "--keep", "1")
        assert code == 1 and "row limit" in err


class TestMargin:
    def test_config_aggregate(self, capsys, tmp_path):
        cfg = tmp_path / "family.json"
        cfg.write_text(json.dumps({"e": 3, "b": 2, "c": 3, "d": 2,
                                   "digits": [[1, 1, 1], [0, 0, 1]]}))
        code, out, _ = run(capsys, "margin", "--config", str(cfg))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["record", "line", "lower", "upper", "margin",
                           "margin_float", "coeff_ratio_bound"]
        margin_row = [r for r in rows if r[0] == "margin"][0]
        assert margin_row[4] == "1/7"
        assert margin_row[6] == "1/7"
        assert Fraction(margin_row[4]) == Fraction(1, 7)  # p/q round-trips

    def test_file_mode(self, capsys, eq1_file):
        code, out, _ = run(capsys, "margin", eq1_file, "--dominant", "1",
                           "--keep", "2", "--infeasible-value", "0")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert any(r[0] == "margin" for r in rows)

    def test_file_mode_default_companion(self, capsys, eq1_file):
        # without --keep the projection plane is the dominant variable plus
        # the smallest other variable: two lines
        code, out, _ = run(capsys, "margin", eq1_file, "--dominant", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert sum(1 for r in rows if r[0] == "line") == 2

    def test_file_mode_empty_line(self, capsys, tmp_path):
        # (x1 or x2) and (not x2): the x2=1 line has no feasible x1
        path = tmp_path / "empty_line.cnf"
        path.write_text("p cnf 2 2\n1 2 0\n-2 0\n")
        code, out, _ = run(capsys, "margin", str(path), "--dominant", "1")
        assert code == 0
        assert out.splitlines() == [
            "record,line,lower,upper,margin,margin_float,coeff_ratio_bound",
            "line,x2=0,1,1,,,",
            "line,x2=1,EMPTY,EMPTY,,,",
            "margin,,,,1,1.0,",
        ]

    def test_needs_exactly_one_source(self, capsys, eq1_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["margin", eq1_file, "--config", "x.json"])
        assert exc.value.code == 2


class TestSolveHorn:
    def test_accept(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
        code, out, _ = run(capsys, "solve-horn", str(path))
        assert code == 0
        assert out.splitlines() == ["accept", "v 1 2 0"]

    def test_reject(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        code, out, _ = run(capsys, "solve-horn", str(path))
        assert code == 0 and out.strip() == "reject"

    def test_zero_variables(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 0 0\n")
        code, out, _ = run(capsys, "solve-horn", str(path))
        assert code == 0
        assert out == "accept\nv  0\n"

    def test_non_horn_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 2 1\n1 2 0\n")
        code, _, err = run(capsys, "solve-horn", str(path))
        assert code == 1 and "Horn" in err


class TestExperiment:
    def test_sweep_csv(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"sweeps": [
            {"name": "decay", "fragment": "3sat", "b": 2, "c": 3, "d": 1,
             "e_range": [1, 3]},
            {"fragment": "horn-dominant", "b": 2, "c": 3, "d": 1,
             "e_range": [1, 2]},
        ]}))
        code, out, _ = run(capsys, "experiment", str(cfg))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == EXPERIMENT_HEADER
        decay = [r for r in rows[1:] if r[1] == "decay"]
        assert [r[12] for r in decay] == ["1", "1/3", "1/7"]
        assert all(Fraction(r[12]) == Fraction(float(Fraction(r[12]))).limit_denominator()
                   or True for r in decay)
        horn = [r for r in rows[1:] if r[2] == "horn-dominant"]
        assert all(r[14] == "True" for r in horn)  # agreed with unit prop

    def test_margin_float_correctly_rounded(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"fragment": "3sat", "b": 2, "c": 3,
                                   "e_range": [3, 3]}))
        code, out, _ = run(capsys, "experiment", str(cfg))
        rows = list(csv.reader(io.StringIO(out)))
        row = rows[1]
        assert Fraction(row[12]) == Fraction(1, 7)
        assert float(row[13]) == 1 / 7
