"""CLI dispatch, output formats, exit codes."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ordens
from ordens import tables
from ordens.cli import build_parser, entrypoint, main
from ordens.roots import unit_orders


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestDensityCommand:
    def test_plain(self):
        code, out = run(["density", "--ell", "3", "--field", "Q(sqrt -3)", "--a", "8*zeta3"])
        assert code == 0 and out.strip() == "1/12"

    def test_valuation(self):
        code, out = run(["density", "--ell", "2", "--field", "Q", "--a", "2", "--val", "1"])
        assert code == 0 and out.strip() == "7/24"

    def test_json_round_trips(self):
        code, out = run(["--format", "json", "density", "--ell", "2",
                         "--field", "Q(sqrt 3)", "--a", "-2"])
        assert code == 0
        payload = json.loads(out)
        assert str(Fraction(payload["exact"])) == payload["exact"]
        assert payload["exact"] == "7/24"
        assert payload["params"]["eps"] == "1/2"

    def test_csv_schema(self):
        code, out = run(["--format", "csv", "density", "--ell", "2", "--field", "Q", "--a", "3"])
        lines = out.strip().splitlines()
        assert lines[0] == "field,a,ell,n,exact,empirical,abs_error"
        assert lines[1] == "Q,3,2,0,1/3,,"

    @pytest.mark.parametrize("field", ["Q", "Q(sqrt -1)", "Q(sqrt -3)"])
    def test_torsion_params_give_the_order(self, field):
        for xi, order in unit_orders(ordens.parse_field(field)).items():
            code, out = run(["--format", "json", "density", "--ell", "2", "--field", field,
                             f"--a={ordens.format_element(xi)}", "--val", "0"])
            assert code == 0 and json.loads(out)["params"] == {"order": str(order)}, xi


def run_process(argv, budget):
    """Run the CLI in a fresh interpreter and check it finished within budget seconds."""
    src = str(Path(ordens.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ordens.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{argv} took {elapsed:.2f}s"
    return proc


def run_subprocess(argv, budget):
    """run_process, returning (code, stderr)."""
    proc = run_process(argv, budget)
    return proc.returncode, proc.stderr


class TestLargeInputs:
    def test_high_valuation_is_fast(self):
        start = time.perf_counter()
        code, out = run(["density", "--ell", "2", "--field", "Q", "--a", "3", "--val", "30"])
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out.strip() == "1/1610612736"

    def test_valuation_1000_is_exact(self):
        code, out = run(["density", "--ell", "2", "--field", "Q", "--a", "3", "--val", "1000"])
        assert code == 0 and Fraction(out.strip()) == Fraction(1, 3 * 2 ** 999)

    @pytest.mark.parametrize("val", ["100000", "1000000000"])
    def test_valuation_over_the_budget_is_3(self, val):
        code, err = run_subprocess(["density", "--ell", "2", "--field", "Q", "--a", "3",
                                    "--val", val], budget=1.0)
        assert code == 3
        assert "Traceback" not in err and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["density", "--ell", "2", "--field", "Q", "--a", "2^100000000"],
        ["decompose", "--ell", "3", "--field", "Q", "--a", "7^9001"],
    ])
    def test_oversized_element_text_is_3(self, argv):
        code, err = run_subprocess(argv, budget=2.0)
        assert code == 3
        assert "Traceback" not in err and err.startswith("error:")


class TestPowerBound:
    """A rational power is refused before it is built only when it must be too large."""

    @pytest.mark.parametrize("a", ["2^4000", "3^2584"])  # 4,001 and 4,096 bits
    def test_power_under_the_limit_answers(self, a):
        code, out = run(["decompose", "--ell", "2", "--field", "Q(sqrt -1)", "--a", a])
        assert code == 0
        fields = dict(item.split("=", 1) for item in out.split())
        spec = ordens.parse_field("Q(sqrt -1)")
        b, xi = ordens.parse_element(fields["b"], spec), ordens.parse_element(fields["xi"], spec)
        assert b ** (2 ** int(fields["d"])) * xi == ordens.parse_element(a, spec)

    @pytest.mark.parametrize("a", ["2^4097", "3^2585"])  # 4,098 bits each
    def test_power_over_the_limit_is_3(self, a, capsys):
        code, _ = run(["decompose", "--ell", "2", "--field", "Q(sqrt -1)", "--a", a])
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err and err.startswith("error:")


class TestLeadingMinus:
    """Element text that starts with '-' reads the same after --a as after --a=."""

    @pytest.mark.parametrize("field,a", [
        ("Q", "-2/3"), ("Q(sqrt 3)", "-2*sqrt(3)"), ("Q(sqrt -3)", "-1/2+1/2*sqrt(-3)"),
    ])
    def test_same_answer_as_equals_form(self, field, a):
        for head in ([], ["--format", "json"]):
            spaced = run(head + ["density", "--ell", "2", "--field", field, "--a", a])
            joined = run(head + ["density", "--ell", "2", "--field", field, f"--a={a}"])
            assert spaced[0] == 0 and spaced == joined


class TestLimits:
    """Each documented limit answers exit 3 at once, with no traceback."""

    @pytest.mark.parametrize("argv", [
        ["density", "--ell", "1000000000000000003", "--field", "Q", "--a", "3"],
        ["density", "--ell", "3", "--field", "Q(sqrt 1000000000000000003)", "--a", "3"],
        ["density", "--ell", "3", "--field", f"Q(sqrt {'7' * 5000})", "--a", "3"],
        ["kummer", "--ell", "2", "--field", "Q", "--a", "3", "--m", "100000", "--n", "100000"],
        ["kummer", "--ell", "2", "--field", "Q", "--a", "3", "--m", "1000000000", "--n", "1"],
        ["scan", "--ell", "3", "--field", "Q", "--a", "2", "--bound", "10000001"],
    ], ids=["ell60bits", "d60bits", "d5000digits", "kummer_mn", "kummer_m", "bound"])
    def test_over_the_limit_is_3(self, argv):
        code, err = run_subprocess(argv, budget=1.0)
        assert code == 3
        assert "Traceback" not in err and err.startswith("error:")

    def test_unit_at_ell_61_answers(self):
        code, out = run(["density", "--ell", "61", "--field", "Q(sqrt 2)", "--a", "1+1*sqrt(2)"])
        assert code == 0 and Fraction(out.strip()) > 0

    # Units pass the norm test for every odd l, so each of these lifts a root at the
    # largest prime l below 2**20.  The lift is about 0.2 ms and the whole command
    # 0.1-0.15 s on a 2-core VM; a wrong candidate's exact power would have l bits.
    @pytest.mark.parametrize("field,a", [
        ("Q(sqrt 2)", "1+1*sqrt(2)"), ("Q(sqrt 3)", "2+1*sqrt(3)"),
        ("Q(sqrt 5)", "1/2+1/2*sqrt(5)"),
    ], ids=["sqrt2", "sqrt3", "golden"])
    def test_unit_at_the_largest_ell_answers(self, field, a):
        ell = 1048573
        proc = run_process(["density", "--ell", str(ell), "--field", field, f"--a={a}"],
                           budget=1.0)
        assert proc.returncode == 0, proc.stderr
        element = ordens.parse_element(a, ordens.parse_field(field))
        assert Fraction(proc.stdout.strip()) == ordens.density_series(element, ell).value


class TestRootSearchSpeed:
    """Root lifts near the coordinate limit (subprocess, wall time)."""

    def _decompose(self, ell, field, a, budget):
        proc = run_process(["decompose", "--ell", str(ell), "--field", field, f"--a={a}"],
                           budget)
        assert proc.returncode == 0, proc.stderr
        fields = dict(item.split("=", 1) for item in proc.stdout.split())
        spec = ordens.parse_field(field)
        assert fields["case"] == "power" and fields["d"] == "1"
        assert ordens.parse_element(fields["b"], spec) ** ell == ordens.parse_element(a, spec)

    def test_thirty_first_power(self):
        self._decompose(31, "Q(sqrt 2)",
                        "1361129467683753853853498429727072845825"
                        "+680564733841876926926749214863536422915*sqrt(2)^31", budget=3.0)

    def test_cube_at_the_coordinate_limit(self):
        b = f"{2 ** 1364 + 1}+{2 ** 1363 + 3}*sqrt(-3)"
        self._decompose(3, "Q(sqrt -3)", f"{b}^3", budget=2.0)


class TestKummerCommand:
    def test_exceptional_layer(self):
        code, out = run(["kummer", "--ell", "2", "--m", "3", "--n", "1",
                         "--field", "Q", "--a", "2"])
        assert code == 0
        assert "relative_degree 1" in out and "total_degree 4" in out

    def test_relative_degree_between_one_and_the_total(self):
        # over Q(sqrt 5) at l = 3, [K(zeta_9) : K] = 6 and the cube root of 3 adds 3
        code, out = run(["--format", "json", "kummer", "--ell", "3", "--field", "Q(sqrt 5)",
                         "--a", "3", "--m", "2", "--n", "1"])
        assert code == 0
        assert '"relative_degree": 3, "special": false, "total_degree": 18' in out


class TestDecomposeCommand:
    def test_normal_form_fields(self):
        code, out = run(["--format", "json", "decompose", "--ell", "2",
                         "--field", "Q(sqrt -1)", "--a", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"case": "power_times_unit", "d": 2, "b": "1+1*sqrt(-1)",
                           "xi": "-1", "r": 1}

    def test_torsion_case(self):
        code, out = run(["decompose", "--ell", "2", "--field", "Q(sqrt -1)", "--a", "i"])
        assert code == 0 and "root_of_unity" in out


class TestProfileCommand:
    def test_json(self):
        code, out = run(["--format", "json", "profile", "--ell", "2", "--field", "Q(sqrt 2)"])
        assert code == 0
        payload = json.loads(out)
        assert payload["zeta4_stall"] == 3 and payload["tower"] == "plus"


class TestScanCommand:
    def test_compare_csv(self):
        code, out = run(["--format", "csv", "scan", "--ell", "2", "--field", "Q",
                         "--a", "3", "--bound", "3000", "--compare"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "field,a,ell,n,exact,empirical,abs_error"
        assert len(lines) > 2

    def test_plain_compare(self):
        code, out = run(["scan", "--ell", "2", "--field", "Q", "--a", "3",
                         "--bound", "3000", "--compare"])
        assert code == 0 and "max_abs_error" in out

    def test_plain_scan_needs_no_exact_side(self):
        # a plain scan reports no exact density; --compare adds it, here at l = 67
        argv = ["scan", "--ell", "67", "--field", "Q(sqrt 2)", "--a=1+1*sqrt(2)",
                "--bound", "1000"]
        code, out = run(argv)
        assert code == 0 and out.startswith("counted ") and "exact" not in out
        code, out = run([*argv, "--compare"])
        assert code == 0 and "max_abs_error 67/4488 (0.014929)" in out.splitlines()


class TestTablesCommand:
    def test_table_four_matches(self):
        code, out = run(["tables", "--which", "4"])
        assert code == 0
        assert "0 diffs" in out

    def test_byte_identical_runs(self):
        _, first = run(["tables", "--which", "2"])
        _, second = run(["tables", "--which", "2"])
        assert first == second


class TestSelfcheck:
    def test_passes(self):
        code, out = run(["selfcheck"])
        assert code == 0
        assert "selfcheck passed" in out

    def test_json(self):
        code, out = run(["--format", "json", "selfcheck"])
        payload = json.loads(out)
        assert code == 0 and payload["passed"] is True
        assert payload["tables"] == [{"table": t, "diffs": 0} for t in (1, 2, 3, 4)]
        assert len(payload["series"]) == 6
        for check in payload["series"]:
            assert check["ok"] is True and check["closed"] == check["series"]
            assert set(check) == {"field", "a", "ell", "closed", "series", "ok"}

    def test_csv_prints_the_plain_lines(self):
        assert run(["--format", "csv", "selfcheck"]) == run(["selfcheck"])


class TestRendering:
    """What main prints of a command's answer in each format."""

    @pytest.mark.parametrize("argv", [
        ["density", "--ell", "2", "--field", "Q", "--a", "3"],
        ["scan", "--ell", "2", "--field", "Q", "--a", "3", "--bound", "3000", "--compare"],
    ], ids=["density", "scan_compare"])
    def test_csv_lines_end_in_crlf(self, argv):
        code, out = run(["--format", "csv", *argv])
        lines = out.split("\r\n")
        assert code == 0 and len(lines) >= 3 and lines[-1] == ""
        assert not any("\r" in line or "\n" in line for line in lines)

    def test_profile_plain_key_order(self):
        code, out = run(["profile", "--ell", "2", "--field", "Q(sqrt 2)"])
        assert code == 0 and out == ("field=Q(sqrt 2) ell=2 has_zeta_ell=True has_zeta4=False "
                                     "degree=1 stall=1 zeta4_stall=3 tower=plus\n")

    def test_decompose_plain_key_order(self):
        code, out = run(["decompose", "--ell", "2", "--field", "Q(sqrt -1)", "--a", "4"])
        assert code == 0 and out == "case=power_times_unit d=2 b=1+1*sqrt(-1) xi=-1 r=1\n"

    @pytest.mark.parametrize("argv", [
        ["kummer", "--ell", "2", "--field", "Q", "--a", "2", "--m", "3", "--n", "1"],
        ["profile", "--ell", "2", "--field", "Q(sqrt 2)"],
        ["decompose", "--ell", "2", "--field", "Q(sqrt -1)", "--a", "4"],
    ], ids=["kummer", "profile", "decompose"])
    def test_csv_without_rows_prints_the_plain_lines(self, argv):
        plain = run(argv)
        assert plain[0] == 0 and run(["--format", "csv", *argv]) == plain


class TestGoldenMismatch:
    """A wrong golden value is reported and exits 4."""

    @pytest.fixture(autouse=True)
    def wrong_table2(self, monkeypatch):
        monkeypatch.setattr(tables, "_TABLE2", [("Q(sqrt 3)", "2", "1/8"), *tables._TABLE2[1:]])

    def test_tables(self):
        code, out = run(["tables", "--which", "2"])
        assert code == 4
        assert "Q(sqrt 3)\t2\tl=3\tn=0\t5/8  MISMATCH expected 1/8\n" in out
        assert out.endswith("12 rows, 1 diffs\n")

    def test_selfcheck(self):
        code, out = run(["selfcheck"])
        assert code == 4 and "table 2: 1 diffs\n" in out and out.endswith("selfcheck FAILED\n")
        code, out = run(["--format", "json", "selfcheck"])
        assert code == 4 and json.loads(out)["passed"] is False


class TestExitCodes:
    def test_parse_error_is_2(self):
        code, _ = run(["density", "--ell", "2", "--field", "Q", "--a", "i"])
        assert code == 2

    def test_bad_field_text_is_2(self):
        code, _ = run(["density", "--ell", "2", "--field", "Z", "--a", "2"])
        assert code == 2

    def test_non_squarefree_d_is_3(self):
        code, _ = run(["density", "--ell", "2", "--field", "Q(sqrt 12)", "--a", "2"])
        assert code == 3

    def test_zero_element_is_3(self):
        code, _ = run(["density", "--ell", "2", "--field", "Q", "--a", "0"])
        assert code == 3

    def test_n_above_m_is_3(self):
        code, _ = run(["kummer", "--ell", "2", "--m", "1", "--n", "2",
                       "--field", "Q", "--a", "2"])
        assert code == 3

    def test_non_prime_ell_is_3(self):
        code, _ = run(["density", "--ell", "4", "--field", "Q", "--a", "2"])
        assert code == 3

    @pytest.mark.parametrize("bound", ["1", "2"])
    def test_scan_without_counted_slots_is_3(self, bound):
        # 2 is excluded (it divides l*a), so no prime is left to count
        src = str(Path(ordens.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "ordens.cli", "scan", "--ell", "2", "--field", "Q",
             "--a", "2", "--bound", bound],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr and proc.stderr.startswith("error:")

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["density", "--ell", "2"])
        assert exc.value.code == 2

    def test_failed_invariant_is_4(self, monkeypatch, capsys):
        monkeypatch.setattr(ordens.Decomposition, "recompose", lambda self: self.unit)
        code, _ = run(["decompose", "--ell", "2", "--field", "Q", "--a", "12"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("invariant failure:") and "Traceback" not in err


class TestClosedPipe:
    """A reader that stops early, as `| head -1` does, gets no traceback."""

    ARGV = [["tables", "--which", "1"],
            ["scan", "--ell", "2", "--field", "Q", "--a", "2", "--bound", "20000"]]

    @staticmethod
    def start(argv, stdout):
        src = str(Path(ordens.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.Popen([sys.executable, "-m", "ordens.cli", *argv],
                                stdout=stdout, stderr=subprocess.PIPE, env=env)

    @pytest.mark.parametrize("argv", ARGV)
    def test_read_one_line_then_close(self, argv):
        proc = self.start(argv, subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 141)
        assert first.strip() and "Traceback" not in err and err == ""

    @pytest.mark.parametrize("argv", ARGV)
    def test_reader_gone_before_the_first_line(self, argv):
        # The read end closes before the child writes, so its first write fails.
        r, w = os.pipe()
        os.close(r)
        proc = self.start(argv, w)
        os.close(w)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert b"Traceback" not in err and err == b""


class TestSharedParser:
    """One parser serves every main call of a process without carrying state."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_sequence_leak_nothing(self, capsys):
        code, out = run(["scan", "--ell", "2", "--field", "Q", "--a", "3",
                         "--bound", "3000", "--compare"])
        assert code == 0 and "max_abs_error" in out
        code, out = run(["density", "--ell", "2", "--field", "Q", "--a", "3", "--val", "3"])
        assert code == 0 and out.strip() == "1/12"
        code, out = run(["kummer", "--ell", "2", "--m", "3", "--n", "1",
                         "--field", "Q", "--a", "2"])
        assert code == 0 and "total_degree 4" in out
        with pytest.raises(SystemExit) as exc:
            main(["density", "--ell", "2", "--field", "Q"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["density", "--help"])
        assert exc.value.code == 0
        assert "--val" in capsys.readouterr().out
        argv = ["--format", "json", "density", "--ell", "2", "--field", "Q", "--a", "3"]
        code, out = run(argv)
        assert code == 0 and json.loads(out)["n"] == 0
        assert out == run_process(argv, budget=10.0).stdout

    def test_entrypoint(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["ordens", "--format", "json", "density",
                                          "--ell", "2", "--field", "Q", "--a", "2", "--val", "1"])
        with pytest.raises(SystemExit) as exc:
            entrypoint()
        assert exc.value.code == 0
        assert json.loads(capsys.readouterr().out)["exact"] == "7/24"


class TestInProcessCaches:
    """main keeps the parsed element and the JSON encoder between calls of one process."""

    @pytest.mark.parametrize("field,a,want", [
        ("Q", "2+", 2), ("Q", "1/0", 2), ("Q", "0", 3), ("Q", "2^100000", 3),
        ("Q(sqrt", "2", 2), ("Q(sqrt 4)", "2", 3), ("Z", "2", 2),
    ])
    def test_bad_input_fails_the_same_way_twice(self, capsys, field, a, want):
        runs = []
        for _ in range(2):
            code, out = run(["density", "--ell", "2", "--field", field, f"--a={a}"])
            runs.append((code, out, capsys.readouterr().err))
        assert runs[0] == runs[1]
        assert runs[0][0] == want and runs[0][2].startswith("error: ")

    def test_same_element_text_over_two_fields(self):
        q = run(["decompose", "--ell", "2", "--field", "Q", "--a", "2"])
        rt2 = run(["decompose", "--ell", "2", "--field", "Q(sqrt 2)", "--a", "2"])
        assert q == (0, "case=power d=0 b=2 xi=1 r=0\n")
        assert rt2 == (0, "case=power d=1 b=1*sqrt(2) xi=1 r=0\n")

    @pytest.mark.parametrize("argv", [
        ["density", "--ell", "2", "--field", "Q(sqrt 3)", "--a", "-2", "--val", "2"],
        ["kummer", "--ell", "2", "--field", "Q", "--a", "2", "--m", "3", "--n", "1"],
        ["decompose", "--ell", "3", "--field", "Q(sqrt -3)", "--a", "8*zeta3"],
        ["profile", "--ell", "2", "--field", "Q(sqrt 2)"],
        ["scan", "--ell", "2", "--field", "Q", "--a", "3", "--bound", "3000", "--compare"],
        ["tables", "--which", "2"],
        ["selfcheck"],
    ], ids=lambda argv: argv[0])
    def test_json_is_sorted_dumps(self, argv):
        for _ in range(2):
            code, out = run(["--format", "json", *argv])
            assert code == 0 and out == json.dumps(json.loads(out), sort_keys=True) + "\n"
