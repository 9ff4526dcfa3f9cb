import json
import math
import os
import random
import subprocess
import sys

import pytest

from kernelineq import Instance, Kernel, condition_A, condition_D
from kernelineq import discretize, kernels
from kernelineq.cli import (InstanceError, _build_parser, _jsonable, parse_instance,
                            run_command, serialize)

DATA = os.path.join(os.path.dirname(__file__), "data")
EX1 = os.path.join(DATA, "ex1.json")
EX2 = os.path.join(DATA, "ex2.json")
EX3 = os.path.join(DATA, "ex3.json")
# The keys of one bridge check, in report order, in both bridge reports.
BRIDGE_KEYS = ["form", "C_discrete", "C_continuous", "factor_bound", "slack",
               "factor_ok"]

MINIMAL = {
    "window": {"start": 0, "length": 1},
    "p": 1, "q": 1,
    "v": [1], "w": [1],
    "kernel": {"type": "constant", "c": 1},
}


def doc(**overrides):
    d = json.loads(json.dumps(MINIMAL))
    d.update(overrides)
    return json.dumps(d)


class TestParseInstance:
    def test_minimal(self):
        inst = parse_instance(doc())
        assert isinstance(inst, Instance)
        assert inst.length == 1

    def test_inf_exponent(self):
        inst = parse_instance(doc(p="inf"))
        assert math.isinf(inst.p)

    def test_bytes_input(self):
        assert parse_instance(doc().encode()).length == 1

    def test_length_mismatch_names_field(self):
        with pytest.raises(InstanceError) as err:
            parse_instance(doc(v=[1, 2]))
        assert err.value.field == "v"

    def test_negative_weight(self):
        with pytest.raises(InstanceError) as err:
            parse_instance(doc(w=[-1]))
        assert "w" in err.value.field

    def test_bad_kernel_shape(self):
        bad = {
            "window": {"start": 0, "length": 2},
            "p": 1, "q": 1, "v": [1, 1], "w": [1, 1],
            "kernel": {"type": "tabulated", "entries": [[1], [1]]},
        }
        with pytest.raises(InstanceError) as err:
            parse_instance(json.dumps(bad))
        assert "kernel" in err.value.field

    def test_unknown_kernel_tag(self):
        with pytest.raises(InstanceError):
            parse_instance(doc(kernel={"type": "mystery"}))

    def test_malformed_json(self):
        with pytest.raises(InstanceError):
            parse_instance("{not json")

    def test_round_trip(self):
        for path in (EX1, EX2, EX3):
            with open(path, "rb") as fh:
                inst = parse_instance(fh.read())
            again = parse_instance(serialize(inst))
            assert again == inst
            assert again.v.values == inst.v.values
            assert again.w.values == inst.w.values
            assert again.exponents == inst.exponents
            for i in range(inst.length):
                for n in range(i, inst.length):
                    assert again.kernel.eval(inst.start + i, inst.start + n) \
                        == inst.kernel.eval(inst.start + i, inst.start + n)

    def test_round_trip_inf(self):
        inst = parse_instance(doc(p="inf", q="inf"))
        again = parse_instance(serialize(inst))
        assert math.isinf(again.p) and math.isinf(again.q)

    @pytest.mark.parametrize("kernel", [
        {"type": "constant", "c": 2.5},
        {"type": "tabulated", "entries": [[1.0, 2.0, 3.0], [0.5, 1.5], [0.25]]},
        {"type": "sup", "u": [1.0, 0.5, 2.0]},
        {"type": "row", "u": [3.0, 0.0, 1.0]},
        {"type": "power", "base": {"type": "tabulated", "entries": [
            [1.0, 2.0, 3.0], [0.5, 1.5], [0.25]]}, "r": 0.5},
        {"type": "power", "base": {"type": "power", "base": {
            "type": "sup", "u": [1.0, 0.5, 2.0]}, "r": 2.0}, "r": 3.0},
    ])
    def test_round_trip_every_kernel_tag(self, kernel):
        inst = parse_instance(doc(window={"start": -1, "length": 3},
                                  v=[1, 2, 3], w=[0.5, 1, 4], kernel=kernel))
        text = serialize(inst)
        assert parse_instance(text) == inst
        # The written document is the one read, key order and floats too.
        assert json.dumps(json.loads(text)["kernel"]) == json.dumps(kernel)


class TestRunCommand:
    def test_constants_set_a(self, capsys):
        assert run_command(["constants", EX1, "--set", "A"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["constants"]["A_1"] == 3.0

    @pytest.mark.parametrize("path", [EX1, EX2, EX3])
    @pytest.mark.parametrize("which", ["A", "D", "all"])
    def test_constants_sets(self, path, which, capsys):
        # A_1..A_13, then D_1..D_6, each one the regime admits.
        with open(path, "rb") as fh:
            inst = parse_instance(fh.read())
        expected = {}
        for prefix, count, condition in (("A", 13, condition_A),
                                         ("D", 6, condition_D)):
            if which not in (prefix, "all"):
                continue
            for k in range(1, count + 1):
                try:
                    expected[f"{prefix}_{k}"] = condition(k, inst)
                except ValueError:
                    pass
        assert expected
        assert run_command(["constants", path, "--set", which]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["set"] == which
        assert list(rep["constants"]) == list(expected)
        assert rep["constants"] == _jsonable(expected)

    def test_characterize(self, capsys):
        assert run_command(["characterize", EX1]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["predicted_kernel"] == 3.0

    def test_oracle(self, capsys):
        assert run_command(["oracle", EX1, "--form", "GOP_DUAL"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["estimate"] == 3.0
        assert rep["exact"] is True

    def test_verify_six(self, capsys):
        assert run_command(["verify", EX1, "--suite", "six",
                            "--trials", "50", "--seed", "7"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"] is True
        assert rep["trials"] == 50

    @pytest.mark.parametrize("suite", ["dual", "scaling"])
    def test_verify_unsampled_suite_reports_no_trials(self, suite, capsys):
        # These suites make no check on random sequences.
        assert run_command(["verify", EX1, "--suite", suite,
                            "--trials", "50"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["trials"] == 0

    @pytest.mark.parametrize("suite", ["kernel-main", "discretize", "scaling"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_nonpositive_trials_exit_2(self, suite, trials, capsys):
        # A run of no trials checks nothing, so it must not report a pass.
        assert run_command(["verify", EX1, "--suite", suite,
                            "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials must be at least 1" in captured.err

    def test_verify_bridge(self, capsys):
        assert run_command(["verify", EX1, "--suite", "bridge"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert list(rep) == ["command", "suite", "passed", "checks"]
        assert [c["form"] for c in rep["checks"]] == ["GOP_DUAL", "SUP_ITER"]
        for check in rep["checks"]:
            assert list(check) == BRIDGE_KEYS

    @pytest.mark.parametrize("path", [EX1, EX2])
    def test_verify_discretize_block_decomposition(self, path, capsys):
        # p <= 1 and finite q: every trial decomposes a random sequence.
        assert run_command(["verify", path, "--suite", "discretize",
                            "--trials", "20"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"] is True and rep["failures"] == []
        sample = rep["l24_sample"]
        assert list(sample) == ["lhs", "block_term", "cross_term", "ratio"]
        assert all(isinstance(x, float) and x > 0 for x in sample.values())

    def test_discretize(self, capsys):
        assert run_command(["discretize", EX1, "--D", "2"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["indices"] == ["-inf", 0, 1, 2]
        assert rep["verified"]["ok"] is True

    def test_discretize_irregular_kernel_exit_2(self, tmp_path, capsys):
        # U(0, 2) = 1 > 0 = U(0, 1) + U(1, 2): the regularity constant is
        # inf, so no default covering ratio exists.
        irregular = {
            "window": {"start": 0, "length": 3},
            "p": 1, "q": 1, "v": [1, 1, 1], "w": [1, 1, 1],
            "kernel": {"type": "tabulated", "entries": [[0, 0, 1], [0, 0], [0]]},
        }
        path = tmp_path / "irregular.json"
        path.write_text(json.dumps(irregular))
        assert run_command(["discretize", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no admissible covering ratio" in captured.err
        assert run_command(["discretize", str(path), "--D", "2"]) == 0

    @pytest.mark.parametrize("p, q, argv, D", [
        (1, 3, ["discretize"], 4.0),
        (1, "inf", ["verify", "--suite", "discretize", "--trials", "5"], 2.0),
        (2, 3, ["discretize"], 4.0),
        (2, 3, ["verify", "--suite", "discretize", "--trials", "5"], 4.0),
        (1, 3, ["verify", "--suite", "discretize", "--trials", "5"], 4.0),
    ])
    def test_discretize_reads_the_kernels_regularity(self, p, q, argv, D,
                                                     monkeypatch, tmp_path, capsys):
        # At p >= 1 the covering ratio needs the regularity constant of U
        # itself, which a constant kernel has in closed form: no triangle
        # is scanned, where a scan of U^1 would rescan what the kernel has.
        scan, scanned = kernels._regularity_scan, []

        def counting_scan(cols, rows):
            scanned.append(cols)
            return scan(cols, rows)
        monkeypatch.setattr(kernels, "_regularity_scan", counting_scan)
        doc_ = {
            "window": {"start": -1, "length": 5}, "p": p, "q": q,
            "v": [1, 2, 0.5, 4, 1], "w": [3, 1, 2, 0.25, 1],
            "kernel": {"type": "constant", "c": 2},
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc_))
        assert run_command(argv[:1] + [str(path)] + argv[1:]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["D"] == D
        if argv[0] == "discretize":
            assert (rep["indices"], rep["levels"]) == (["-inf", 0, 2, 3], [-1, 0, 1])
        else:
            assert rep["passed"] is True
            assert (rep["l24_sample"] is None) == (p > 1 or q == "inf")
        assert scanned == []

    @pytest.mark.parametrize("p, powers", [(0.5, 1), (1, 0)])
    def test_discretize_suite_scans_u_to_the_p_once(self, p, powers, monkeypatch,
                                                    tmp_path, capsys):
        # The suite runs l24_decompose once per trial; each needs C(U^p),
        # which the kernel keeps per exponent (U itself at p = 1), scanned
        # from its view of U^p.
        viewed, scans = [], []
        view_scan, scan = kernels._regularity_scan, Kernel.regularity_constant

        def counting_view_scan(cols, rows):
            viewed.append(cols)
            return view_scan(cols, rows)

        def counting_scan(kernel):
            if ("regularity_constant",) not in kernel.memo:
                scans.append(kernel.spec)
            return scan(kernel)
        monkeypatch.setattr(kernels, "_regularity_scan", counting_view_scan)
        monkeypatch.setattr(Kernel, "regularity_constant", counting_scan)
        rng = random.Random(7)
        L = 40
        doc_ = {
            "window": {"start": 0, "length": L}, "p": p, "q": 2,
            "v": [rng.uniform(0.5, 2) for _ in range(L)],
            "w": [rng.uniform(0.5, 2) for _ in range(L)],
            "kernel": {"type": "sup", "u": [rng.uniform(0.5, 2) for _ in range(L)]},
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc_))
        argv = ["verify", str(path), "--suite", "discretize", "--trials", "50"]
        assert run_command(argv) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"] is True and rep["l24_sample"] is not None
        # One scan of U^p: its view's at p = 0.5, U's own at p = 1.
        assert (len(viewed), len(scans)) == (powers, 1 - powers)

    def test_bridge(self, capsys):
        assert run_command(["bridge", EX1]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["factor_ok"] is True
        assert rep["C_discrete"] == 3.0
        assert list(rep) == (["command"] + BRIDGE_KEYS
                             + ["discrete_witness", "continuous_witness"])

    def test_bridge_budget_short_of_the_continuous_side_exit_2(self, tmp_path, capsys):
        # L = 4: the budget covers the window, not the 8 half pieces.
        path = tmp_path / "four.json"
        path.write_text(doc(window={"start": 0, "length": 4}, v=[1] * 4, w=[1] * 4))
        assert run_command(["bridge", str(path), "--budget", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: budget must cover at least one pass over the "
                                "2L = 8 half pieces of the continuous side\n")

    def test_check_kernel(self, capsys):
        assert run_command(["check-kernel", EX1]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["monotone"] is True
        assert rep["regularity_constant"] == 0.5

    def test_check_kernel_failure_exit_1(self, tmp_path, capsys):
        bad = {
            "window": {"start": 0, "length": 2},
            "p": 1, "q": 1, "v": [1, 1], "w": [1, 1],
            "kernel": {"type": "row", "u": [1, 3]},
        }
        path = tmp_path / "row.json"
        path.write_text(json.dumps(bad))
        assert run_command(["check-kernel", str(path)]) == 1

    def test_check_kernel_chain_bound_overflow_is_inf(self, tmp_path, capsys):
        # Regularity constant 5e199; the default chain bound C^2 overflows.
        tiny = 1e-200
        doc_ = {
            "window": {"start": 0, "length": 4},
            "p": 1, "q": 2, "v": [1] * 4, "w": [1] * 4,
            "kernel": {"type": "tabulated", "entries": [
                [tiny, tiny, tiny, 1], [tiny, tiny, tiny], [tiny, tiny], [tiny]]},
        }
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(doc_))
        assert run_command(["check-kernel", str(path)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["regularity_constant"] == 5e199
        assert rep["chain"]["c"] == "inf"

    @pytest.mark.parametrize("argv", [["discretize"],
                                      ["verify", "--suite", "discretize"]])
    def test_discretize_overflowing_threshold_exit_2(self, argv, tmp_path, capsys):
        # 2^(q/p - 1) overflows at q/p = 2000; with C = 1/2 the threshold
        # (4C)^(q/p) / 2 is too large for a float as well.
        doc_ = {
            "window": {"start": 0, "length": 3},
            "p": 0.1, "q": 200, "v": [1] * 3, "w": [1] * 3,
            "kernel": {"type": "constant", "c": 1},
        }
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(doc_))
        assert run_command(argv[:1] + [str(path)] + argv[1:]) == 2
        assert "no admissible covering ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["discretize", "--D", "2"],
                                      ["verify", "--suite", "discretize"]])
    def test_discretize_overflowing_weight_tail_exit_2(self, argv, tmp_path, capsys):
        # The tail sum of w from index 0 overflows to inf: no level band
        # contains it.
        doc_ = {
            "window": {"start": 0, "length": 3},
            "p": 1, "q": 1, "v": [1] * 3, "w": [1.7e308, 1.7e308, 1],
            "kernel": {"type": "constant", "c": 1},
        }
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(doc_))
        assert run_command(argv[:1] + [str(path)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows to inf" in captured.err

    def test_check_kernel_nan_chain_bound_exit_2(self, capsys):
        assert run_command(["check-kernel", EX1, "--c", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "c must be positive" in captured.err

    def test_verify_dual_overflowing_power_kernel(self, tmp_path, capsys):
        # The squared 1e200 entries are inf; the reversed kernel is the
        # same power of the reversed base, so it need not validate them.
        doc_ = {
            "window": {"start": 0, "length": 2},
            "p": 1, "q": 1, "v": [1, 1], "w": [1, 1],
            "kernel": {"type": "power", "r": 2, "base": {
                "type": "tabulated", "entries": [[1e200, 1e200], [1e200]]}},
        }
        path = tmp_path / "squared.json"
        path.write_text(json.dumps(doc_))
        assert run_command(["verify", str(path), "--suite", "dual"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"] is True
        assert rep["estimates"] == {"GOP": "inf", "GOP_DUAL_reversed": "inf"}

    @pytest.mark.parametrize("field, overrides", [
        ("v[0]", {"v": [10 ** 400]}),
        ("p", {"p": 10 ** 400}),
        ("kernel.c", {"kernel": {"type": "constant", "c": 10 ** 400}}),
        ("kernel.r", {"kernel": {"type": "power", "r": 10 ** 400,
                                 "base": {"type": "constant", "c": 1}}}),
    ])
    @pytest.mark.parametrize("command", ["characterize", "bridge"])
    def test_integer_too_large_for_a_float_exit_2(self, command, field, overrides,
                                                  tmp_path, capsys):
        # JSON reads such an integer exactly; float() of it overflows.
        path = tmp_path / "huge.json"
        path.write_text(doc(**overrides))
        assert run_command([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"field {field!r}" in captured.err

    @pytest.mark.parametrize("r", ["1e400", "0", "-1", "true"])
    def test_power_exponent_must_be_positive_and_finite(self, r, tmp_path, capsys):
        # JSON reads 1e400 as inf, which would make every entry 0, 1 or inf.
        path = tmp_path / "power.json"
        path.write_text(doc(kernel={"type": "power", "r": "R", "base": {
            "type": "constant", "c": 1}}).replace('"R"', r))
        assert run_command(["characterize", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "field 'kernel.r'" in captured.err

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert run_command(["oracle", str(path)]) == 2

    def test_missing_file_exit_2(self, capsys):
        assert run_command(["oracle", "/no/such/file.json"]) == 2

    @pytest.mark.parametrize("form", ["SCALE3", "SCALE4"])
    def test_scaling_form_is_usage_error(self, form, capsys):
        # The scaling displays take weights, not an instance: argparse
        # rejects them before the file is read.
        assert run_command(["oracle", EX1, "--form", form]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice" in captured.err

    def test_unknown_subcommand_exit_2(self, capsys):
        assert run_command(["frobnicate", EX1]) == 2

    def test_regime_violation_exit_2(self, capsys):
        # six suite needs p <= 1; ex3 has p = 2.
        assert run_command(["verify", EX3, "--suite", "six"]) == 2

    def test_table_format(self, capsys):
        assert run_command(["characterize", EX1, "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "predicted_kernel" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_determinism(self, capsys):
        argv = ["oracle", EX2, "--form", "GOP_DUAL", "--strategy",
                "support_grid", "--budget", "500", "--seed", "7"]
        assert run_command(argv) == 0
        first = capsys.readouterr().out
        assert run_command(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_one_parser_serves_every_call(self, capsys):
        """The parser is built once per process; a usage error and --help
        before a command leave its report byte for byte the golden one."""
        assert _build_parser() is _build_parser()
        assert run_command(["oracle", EX1, "--budget", "many"]) == 2
        assert run_command(["--help"]) == 0
        capsys.readouterr()
        assert run_command(["oracle", EX1, "--form", "GOP_DUAL", "--strategy",
                            "support_grid", "--budget", "500", "--seed", "7"]) == 0
        with open(os.path.join(DATA, "golden", "ex1_oracle.json"), "rb") as fh:
            assert capsys.readouterr().out.encode("utf-8") == fh.read()


class TestEntryPoint:
    """`python -m kernelineq.cli` in a subprocess: `main` under the
    `__main__` guard, its stdout and its exit status."""

    def run(self, *args):
        src = os.path.abspath(os.path.join(DATA, os.pardir, os.pardir, "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, "-m", "kernelineq.cli", *args],
                              capture_output=True, env=env, timeout=120)

    def test_characterize_prints_the_golden_report(self):
        done = self.run("characterize", EX1)
        with open(os.path.join(DATA, "golden", "ex1_characterize.json"), "rb") as fh:
            assert done.stdout == fh.read()
        assert done.returncode == 0

    def test_non_object_document_exits_2(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        done = self.run("characterize", str(path))
        assert done.returncode == 2
        assert done.stdout == b""
        assert b"'<document>'" in done.stderr


class TestDiscretizeSuiteReports:
    """The discretize suite's zero-weight report, and each failure it
    reports, with exit 1.  No covering, sum bound or block decomposition
    fails on real data, so the failures come from monkeypatched checks."""

    def verify(self, capsys, path=EX1):
        status = run_command(["verify", path, "--suite", "discretize", "--trials", "3"])
        return status, json.loads(capsys.readouterr().out)

    def test_zero_weight_has_nothing_to_cover(self, tmp_path, capsys):
        path = tmp_path / "zero_w.json"
        path.write_text(doc(window={"start": 0, "length": 3}, v=[1, 2, 3], w=[0, 0, 0]))
        assert self.verify(capsys, str(path)) == (0, {
            "command": "verify", "suite": "discretize", "passed": True,
            "note": "zero weight: nothing to cover"})

    def test_covering_failure(self, monkeypatch, capsys):
        report = discretize.CoveringReport(False, "(c2)", "broken")
        monkeypatch.setattr(discretize, "verify_covering", lambda w, cs: report)
        status, rep = self.verify(capsys)
        assert status == 1
        assert rep["passed"] is False and rep["covering_ok"] is False
        assert rep["failures"] == ["covering clause (c2): broken"]

    def test_sum_bounds_failure(self, monkeypatch, capsys):
        bounds = discretize.SumBounds(2.0, 1.0, 3.0)  # lower above the sum
        monkeypatch.setattr(discretize, "weighted_sum_bounds", lambda w, b, cs: bounds)
        status, rep = self.verify(capsys)
        assert status == 1 and rep["passed"] is False
        assert rep["failures"] == [f"sum bounds fail on trial 0: {bounds}"]

    @pytest.mark.parametrize("terms, failure", [
        ((1.0, 1e300, 0.0), "block term exceeds D*lhs on trial 0"),
        ((1.0, 0.0, 1e300), "cross term exceeds its bound on trial 0"),
        ((1e300, 1.0, 1.0), "lhs exceeds the block bound on trial 0"),
    ])
    def test_block_decomposition_failures(self, terms, failure, monkeypatch, capsys):
        dec = discretize.BlockDecomposition(*terms, ratio=1.0)
        monkeypatch.setattr(discretize, "l24_decompose", lambda inst, a, cs: dec)
        status, rep = self.verify(capsys)
        assert status == 1 and rep["passed"] is False
        assert rep["failures"] == [failure]
        assert rep["l24_sample"] == {"lhs": terms[0], "block_term": terms[1],
                                     "cross_term": terms[2], "ratio": 1.0}
