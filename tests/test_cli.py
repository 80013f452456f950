"""Command-line interface: subcommands, exit codes, schema, determinism."""

import json

import pytest

from conftest import DATA_DIR, count_calls
from liptriv.cli import _build_parser, run
from liptriv.properness import ProbeSchedule

SIMPLE = str(DATA_DIR / "ex_simple.map")
BAD = str(DATA_DIR / "bad.map")
MOTZKIN = str(DATA_DIR / "motzkin.map")
CUBE = str(DATA_DIR / "cube.map")
REGULOUS = str(DATA_DIR / "regulous.map")

SCHEMA_KEYS = {
    "input",
    "field",
    "invariance_dim",
    "projection_matrix",
    "reduced_map",
    "jelonek_generators",
    "critical_generators",
    "ltv",
    "checks",
}


def run_json(capsys, args):
    code = run(args + ["--output", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestAnalyze:
    def test_complex_shear_report(self, capsys):
        code, doc = run_json(capsys, ["analyze", "-i", SIMPLE, "--field", "complex"])
        assert code == 0
        assert SCHEMA_KEYS <= set(doc)
        assert doc["ltv"] == "complement"
        assert doc["ltv_complement"] == ["t1"]
        assert doc["jelonek_generators"] == ["t1"]
        assert sorted(doc["critical_generators"]) == ["t1", "t2"]
        assert doc["invariance_dim"] == 1

    def test_twisted_shear_verdict(self, capsys):
        code = run(["analyze", "-i", BAD, "--field", "complex"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Ltv: empty" in out
        assert "cones at infinity" in out
        assert "invariance subspace" in out

    def test_rational_analyze_not_applicable(self, capsys):
        code, doc = run_json(capsys, ["analyze", "-i", REGULOUS])
        assert code == 0
        assert doc["ltv"] == "not applicable"
        assert doc["reason"] == (
            "polynomial factorization theorem not applicable (rational input)"
        )

    def test_same_invocation_identical_bytes(self, capsys):
        run(["analyze", "-i", CUBE, "--field", "complex", "--output", "json"])
        first = capsys.readouterr().out
        run(["analyze", "-i", CUBE, "--field", "complex", "--output", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_seed_env_ignored(self, capsys, monkeypatch):
        # --seed is the one way to set the seed; the environment sets nothing.
        monkeypatch.setenv("LTV_SEED", "7")
        _, doc = run_json(capsys, ["analyze", "-i", CUBE, "--field", "complex"])
        assert doc["seed"] == ProbeSchedule().seed != 7
        monkeypatch.setenv("LTV_SEED", "abc")
        assert run(["factor", "-i", CUBE]) == 0
        capsys.readouterr()

    def test_budget_exhaustion_returns_three(self, capsys):
        code, doc = run_json(
            capsys,
            ["analyze", "-i", SIMPLE, "--field", "complex", "--max-degree", "1"],
        )
        assert code == 3
        assert "flags" in doc

    def test_json_path_written_by_subcommand_in_text_mode(self, capsys, tmp_path):
        target = tmp_path / "factor.json"
        code = run(["factor", "-i", SIMPLE, "--json-path", str(target)])
        text = capsys.readouterr().out
        assert code == 0
        assert text.startswith("invariance subspace dimension: 1")
        run(["factor", "-i", SIMPLE, "--output", "json"])
        assert target.read_text() == capsys.readouterr().out

    def test_json_path_written(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = run(["analyze", "-i", CUBE, "--field", "complex", "--json-path", str(target)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["ltv"] == "complement"


class TestFactor:
    def test_projection_drops_silent_coordinate(self, capsys):
        code = run(["factor", "-i", MOTZKIN])
        out = capsys.readouterr().out
        assert code == 0
        assert "m = 2" in out
        assert "(1, 0, 0)" in out and "(0, 1, 0)" in out
        assert "x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1" in out

    def test_json_shape(self, capsys):
        code, doc = run_json(capsys, ["factor", "-i", SIMPLE])
        assert code == 0
        assert doc["invariance_basis"] == [["0", "1", "-1"]]
        assert doc["reduced_dim"] == 2


class TestJelonekCritical:
    def test_jelonek_subcommand(self, capsys):
        code, doc = run_json(capsys, ["jelonek", "-i", SIMPLE])
        assert code == 0
        assert doc["jelonek_generators"] == ["t1"]

    def test_critical_subcommand_with_roots(self, capsys):
        code, doc = run_json(capsys, ["critical", "-i", MOTZKIN])
        assert code == 0
        assert doc["critical_generators"] == ["t1^2 - t1"]
        assert [r["approx"] for r in doc["real_roots"]] == [0.0, 1.0]
        assert all(r["status"] == "attained" for r in doc["real_roots"])


class TestInfinity:
    def test_explicit_values(self, capsys):
        code, doc = run_json(
            capsys, ["infinity", "-i", BAD, "--values", "1,0;2,0"]
        )
        assert code == 0
        cones = [entry["cone_subspace"] for entry in doc["infinity_values"]]
        assert cones == [[["0", "1", "-1"]], [["0", "1", "-2"]]]

    def test_malformed_values_rejected(self, capsys):
        code = run(["infinity", "-i", BAD, "--values", "1"])
        assert code == 2


class TestProbe:
    def test_probe_values(self, capsys):
        code, doc = run_json(
            capsys,
            ["probe", "-i", MOTZKIN, "--values", "0.5;2", "--radii", "10,100,1000"],
        )
        assert code == 0
        verdicts = {e["value"][0]: e["verdict"] for e in doc["probes"]}
        assert verdicts[0.5] == "proper"
        assert verdicts[2.0] == "non_proper"

    def test_jelonek_ideal_computed_at_most_once(self, capsys, monkeypatch, tmp_path):
        import liptriv.cli
        import liptriv.properness

        calls = []
        original = liptriv.properness.jelonek_ideal

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(liptriv.properness, "jelonek_ideal", counting)
        monkeypatch.setattr(liptriv.cli, "jelonek_ideal", counting)
        shear = tmp_path / "shear.map"
        shear.write_text("ring Q[x,y]; map f: (x, x*y)")

        # Every fiber is finite, so every value needs J(g): computed once.
        code, doc = run_json(capsys, ["probe", "-i", str(shear), "--values", "1,1;2,-3;5,5"])
        assert code == 0
        assert [e["evidence"]["fiber_dimension"] for e in doc["probes"]] == [0, 0, 0]
        assert [e["verdict"] for e in doc["probes"]] == ["proper"] * 3
        assert len(calls) == 1

        # The fiber over (0, 0) is the line x = 0, non-proper without J(g).
        calls.clear()
        code, doc = run_json(
            capsys, ["probe", "-i", str(shear), "--values", "0,0", "--radii", "10,100"]
        )
        assert code == 0
        assert doc["probes"][0]["verdict"] == "non_proper"
        assert calls == []

    def test_repeated_value_certified_once(self, capsys, monkeypatch, tmp_path):
        import liptriv.properness

        calls = count_calls(monkeypatch, liptriv.properness, "is_proper_at_complex")
        shear = tmp_path / "shear.map"
        shear.write_text("ring Q[x,y]; map f: (x, x*y)")
        code, doc = run_json(capsys, ["probe", "-i", str(shear), "--values", "1,1;1,1"])
        assert code == 0
        assert [e["verdict"] for e in doc["probes"]] == ["proper"] * 2
        assert len(calls) == 1

    def test_no_finite_minimum_is_null_in_json(self, capsys):
        # No sphere restart of radius 1e60 has finite powers: mu stays inf.
        argv = ["probe", "-i", MOTZKIN, "--values", "0.5", "--radii", "10,1e60"]
        assert run(argv) == 0
        text = capsys.readouterr().out
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert "inconclusive" in text and doc["probes"][0]["verdict"] == "inconclusive"
        trace = doc["probes"][0]["evidence"]["mu_trace"]
        assert [e["mu"] for e in trace] == [0.5, None]
        assert trace[1]["argmin"] == [None, None]


class TestCompare:
    def test_containment_check(self, capsys):
        code, doc = run_json(capsys, ["compare", "-i", SIMPLE])
        assert code == 0
        assert doc["containment"]["verdict"] == "PASS"

    def test_budget_exhaustion_exits_three_with_flags(self, capsys):
        # The stages go on past a budget, so the document is complete; its
        # last key holds both reports' flags and the exit code says so.
        argv = ["compare", "-i", CUBE, "--max-degree", "2"]
        code, doc = run_json(capsys, argv)
        assert code == 3
        assert (doc["complex_ltv"], doc["containment"]["verdict"]) == ("undetermined", "INCONCLUSIVE")
        assert list(doc)[-2:] == ["containment", "flags"]
        assert list(doc["flags"]) == ["jelonek_budget", "probe_budget"]
        assert run(argv) == 3
        out = capsys.readouterr().out
        assert "  flag jelonek_budget: budget exceeded: degree 3 > limit 2" in out.splitlines()


class TestSchema:
    def test_every_subcommand_json_carries_schema_keys(self, capsys):
        invocations = [
            ["analyze", "-i", SIMPLE, "--field", "complex"],
            ["factor", "-i", SIMPLE],
            ["jelonek", "-i", SIMPLE],
            ["critical", "-i", CUBE],
            ["infinity", "-i", SIMPLE, "--values", "1,0"],
            ["probe", "-i", CUBE, "--values", "1", "--radii", "10,100"],
            ["compare", "-i", SIMPLE],
        ]
        for argv in invocations:
            code, doc = run_json(capsys, argv)
            assert code == 0, argv
            assert SCHEMA_KEYS <= set(doc), argv


class TestErrors:
    def test_parse_error_exit_two(self, capsys, tmp_path):
        bad_file = tmp_path / "broken.map"
        bad_file.write_text("ring Q[x]; map f: (x + q)")
        code = run(["analyze", "-i", str(bad_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown variable" in err

    def test_missing_file_exit_two(self, capsys):
        code = run(["analyze", "-i", "/nonexistent.map"])
        assert code == 2

    def test_malformed_radii_exit_two(self, capsys, monkeypatch):
        import liptriv.dependence
        import liptriv.properness

        probes = count_calls(monkeypatch, liptriv.properness, "properness_probe_real")
        factors = count_calls(monkeypatch, liptriv.dependence, "factor_through_projection")
        code = run(["analyze", "-i", CUBE, "--radii", "10,abc"])
        err = capsys.readouterr().err
        assert code == 2
        assert "abc" in err
        # Zero, NaN, infinite and decreasing radii fail before any stage runs.
        for args in (
            ["probe", "-i", MOTZKIN, "--values", "2", "--radii", "0,10"],
            ["probe", "-i", MOTZKIN, "--values", "2", "--radii", "nan,10"],
            ["probe", "-i", MOTZKIN, "--values", "2", "--radii", "10,inf"],
            ["analyze", "-i", MOTZKIN, "--radii", "100,10"],
            ["analyze", "-i", MOTZKIN, "--radii", "100,10", "--field", "real"],
        ):
            code = run(args)
            err = capsys.readouterr().err
            assert code == 2, args
            assert "invalid input" in err, args
        assert probes == []
        assert factors == []

    def test_budget_below_one_exit_two(self, capsys, monkeypatch):
        import liptriv.dependence

        factors = count_calls(monkeypatch, liptriv.dependence, "factor_through_projection")
        for extra in (
            ["--max-basis", "0"],
            ["--max-basis", "-3"],
            ["--max-degree", "0"],
            ["--max-degree", "-1"],
        ):
            code = run(["analyze", "-i", CUBE, *extra])
            err = capsys.readouterr().err
            assert code == 2, extra
            assert "invalid input" in err, extra
        assert factors == []

    def test_bad_values_rejected_before_probing(self, capsys, monkeypatch):
        import liptriv.infinity
        import liptriv.properness

        probes = count_calls(monkeypatch, liptriv.properness, "properness_probe_real")
        fibers = count_calls(monkeypatch, liptriv.infinity, "fiber_infinity")
        for args in (
            ["infinity", "-i", CUBE, "--values", "1/0"],
            ["probe", "-i", MOTZKIN, "--values", "2;1/0"],
            ["probe", "-i", MOTZKIN, "--values", "2;1e400"],
            ["probe", "-i", MOTZKIN, "--values", "2", "--tube", "1e400|2"],
            ["probe", "-i", MOTZKIN, "--values", "2", "--tube", "1|-1e400"],
        ):
            code = run(args)
            err = capsys.readouterr().err
            assert code == 2, args
            assert "invalid input" in err, args
        assert probes == []
        assert fibers == []
        # The infinity subcommand stays exact, so a huge value is fine there.
        assert run(["infinity", "-i", CUBE, "--values", "1e400"]) == 0
        capsys.readouterr()

    def test_removed_tolerance_flags_exit_two(self, capsys, monkeypatch):
        # The verdict's thresholds are constants, so the flags that set them
        # are usage errors, even at their old defaults.
        import liptriv.dependence

        factors = count_calls(monkeypatch, liptriv.dependence, "factor_through_projection")
        for extra in (["--tol-zero", "1e-6"], ["--mu-floor", "1e-3"]):
            code = run(["analyze", "-i", CUBE, "--field", "real", *extra])
            err = capsys.readouterr().err
            assert code == 2, extra
            assert f"unrecognized arguments: {' '.join(extra)}" in err, extra
        assert factors == []

    def test_huge_exponent_exit_two(self, capsys, tmp_path):
        # The exponent cap is hit while the parser multiplies; the error
        # points at the token of that operation, the exponent or the '*'.
        for text, where in (
            ("ring Q[x]; map f: (x^3000000000)", "1:22:"),
            ("ring Q[x];\nmap f: (x^2147483647 * x)", "2:22:"),
        ):
            source = tmp_path / "huge.map"
            source.write_text(text)
            code = run(["analyze", "-i", str(source)])
            err = capsys.readouterr().err
            assert code == 2, text
            assert err.startswith(f"parse error: {where} exponent"), err

    def test_overlong_literal_exit_two_at_its_position(self, capsys, tmp_path):
        # 5,000 digits pass Python's default int conversion limit; the parser
        # refuses the literal before converting it.
        source = tmp_path / "literal.map"
        source.write_text(f"ring Q[x]; map f: ({'7' * 5000} * x)")
        code = run(["factor", "-i", str(source)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "parse error: 1:20: integer literal of 5000 digits exceeds 1234\n"

    def test_huge_expansion_exit_three(self, capsys, tmp_path):
        # (1+x+y+z)^80 has 91,881 terms; one squaring on the way multiplies
        # 969 by 969 terms, past the parser's product cap.
        import time

        from liptriv.parsing import MAX_PARSE_PRODUCT

        source = tmp_path / "expansion.map"
        source.write_text("ring Q[x,y,z]; map f: ((1+x+y+z)^80)")
        start = time.process_time()
        code = run(["analyze", "-i", str(source)])
        elapsed = time.process_time() - start
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("resource budget exhausted: budget exceeded: parse"), err
        assert f"limit {MAX_PARSE_PRODUCT}" in err
        assert elapsed < 5.0

    def test_huge_coefficient_exit_three(self, capsys, tmp_path):
        # 7^4000000 has 11.2 million bits; one squaring on the way passes the
        # parser's coefficient cap after a few thousand.
        import time

        from liptriv.parsing import MAX_PARSE_BITS

        source = tmp_path / "coefficient.map"
        source.write_text("ring Q[x]; map f: (7^4000000 * x)")
        start = time.process_time()
        code = run(["analyze", "-i", str(source)])
        elapsed = time.process_time() - start
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("resource budget exhausted: budget exceeded: parse coefficient bits"), err
        assert f"limit {MAX_PARSE_BITS}" in err
        assert elapsed < 1.0

    @pytest.mark.parametrize("args", [["analyze", "--field", "real"], ["critical"]])
    def test_coefficient_past_float_range_exit_zero(self, capsys, tmp_path, args):
        # 7^1400 passes both parse caps but not float(): the float kernel
        # takes it as inf, so Newton finds no witness and mu is not finite.
        source = tmp_path / "steep.map"
        source.write_text("ring Q[x]; map f: (7^1400 * x^5 + x^2)")
        code = run(args + ["-i", str(source)])
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        assert "candidate_only" in captured.out

    def test_chained_products_exit_three(self, capsys, tmp_path):
        # Each squaring passes both per-product caps (90,000 term pairs, about
        # 4,000 coefficient bits) and takes about 2 s CPU; the parse's running
        # work total stops the second one.
        import time

        from liptriv.parsing import MAX_PARSE_WORK

        source = tmp_path / "chain.map"
        source.write_text(
            "ring Q[x,y]; map f: ((7^700*(1+x+y)^23)^2, (5^850*(1+x+y)^23)^2, "
            "(3^1240*(1+x+y)^23)^2)"
        )
        start = time.process_time()
        code = run(["factor", "-i", str(source)])
        elapsed = time.process_time() - start
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("resource budget exhausted: budget exceeded: parse work"), err
        assert f"limit {MAX_PARSE_WORK}" in err
        assert elapsed < 4.0

    @pytest.mark.parametrize(
        "text, where",
        [("ring Q[x]; map f: ({} * x)", "1:20"), ("ring Q[x];\nmap f: (x^{})", "2:11")],
    )
    def test_literal_past_a_lowered_conversion_limit_exit_two(self, tmp_path, text, where):
        # 700 digits pass the parser's own cap of 1,234 but not a conversion
        # limit lowered to 640; the error names the literal, not Python.
        import os
        import subprocess
        import sys
        from pathlib import Path

        source = tmp_path / "literal.map"
        source.write_text(text.format("7" * 700))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640", "PYTHONPATH": src}
        script = "import sys; from liptriv.cli import run; sys.exit(run(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", script, "factor", "-i", str(source)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr == f"parse error: {where}: integer literal of 700 digits exceeds 640\n"

    @pytest.mark.parametrize(
        "values, literal",
        [
            (["--values", "1e5000"], "1e5000"),
            (["--values", "0.5", "--tube", "1e5000|1"], "1e5000"),
            (["--values", "1e400"], "1e400"),
        ],
    )
    def test_value_past_the_float_range_named_by_its_text(self, capsys, values, literal):
        # The message quotes the value as given, not its 401 or 5,001 digits,
        # also under a conversion limit lowered to 640 (the default is 4,300).
        import os
        import subprocess
        import sys
        from pathlib import Path

        args = ["probe", "-i", MOTZKIN, *values]
        outcomes = [(run(args), capsys.readouterr().err)]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640", "PYTHONPATH": src}
        script = "import sys; from liptriv.cli import run; sys.exit(run(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", script, *args],
            env=env, capture_output=True, text=True, timeout=60,
        )
        outcomes.append((done.returncode, done.stderr))
        message = f"invalid input: value '{literal}' is too large for a float\n"
        assert outcomes == [(2, message)] * 2

    @pytest.mark.parametrize(
        "command, literal, message",
        [
            ("infinity", "1e10000000", "has a decimal exponent past 1234"),
            ("infinity", "2E-10000000", "has a decimal exponent past 1234"),
            ("infinity", "1e0001235", "has a decimal exponent past 1234"),
            ("infinity", "1" * 1235, "has 1235 digits, more than 1234"),
            ("probe", "1e10000000", "is too large for a float"),
            ("probe", "1e-10000000", "has a decimal exponent past 1234"),
            ("probe", "0e10000000", "has a decimal exponent past 1234"),
        ],
    )
    def test_value_literal_capped_before_expansion(self, capsys, command, literal, message):
        # Fraction('1e10000000') alone takes seconds; the cap is checked on
        # the text first.
        import time

        source = CUBE if command == "infinity" else MOTZKIN
        start = time.process_time()
        code = run([command, "-i", source, "--values", literal])
        assert time.process_time() - start < 2.0
        assert (code, capsys.readouterr().err) == (2, f"invalid input: value '{literal}' {message}\n")

    def test_value_at_the_caps_accepted(self, capsys):
        for literal in ("1e1234", "1e-1234", "1" * 1234):
            assert run(["infinity", "-i", CUBE, "--values", literal, "--output", "json"]) == 0
            capsys.readouterr()

    @pytest.mark.parametrize("command, source", [("infinity", CUBE), ("probe", MOTZKIN)])
    def test_value_past_a_lowered_conversion_limit_named(self, command, source):
        # 701 digits pass the cap of 1,234 but not a conversion limit lowered
        # to 640; the message names the value, not Python's limit function.
        import os
        import subprocess
        import sys
        from pathlib import Path

        literal = "7" * 701
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640", "PYTHONPATH": src}
        script = "import sys; from liptriv.cli import run; sys.exit(run(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", script, command, "-i", source, "--values", literal],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (
            2, f"invalid input: value '{literal}' has 701 digits, more than 640\n"
        )

    @pytest.mark.parametrize("command", ["critical", "analyze"])
    def test_computed_number_past_a_lowered_conversion_limit_exit_zero(self, tmp_path, command):
        # The critical ideal of this map has a 680-digit coefficient; under a
        # conversion limit lowered to 640 the report prints it in full.
        import os
        import re
        import subprocess
        import sys
        from pathlib import Path

        source = tmp_path / "computed.map"
        source.write_text("ring Q[x]; map f: (7^400 * x^5 + x^2)")
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = "import sys; from liptriv.cli import run; sys.exit(run(sys.argv[1:]))"
        runs = {}
        for limit in ("640", "0"):  # 0: no limit
            env = {**os.environ, "PYTHONINTMAXSTRDIGITS": limit, "PYTHONPATH": src}
            runs[limit] = subprocess.run(
                [sys.executable, "-c", script, command, "-i", str(source), "--output", "json"],
                env=env, capture_output=True, text=True, timeout=60,
            )
        assert [(done.returncode, done.stderr) for done in runs.values()] == [(0, "")] * 2
        assert runs["640"].stdout == runs["0"].stdout
        assert max(len(digits) for digits in re.findall(r"\d+", runs["640"].stdout)) > 640

    def test_negative_seed_exit_two_before_any_stage(self, capsys, monkeypatch):
        import liptriv.dependence

        factors = count_calls(monkeypatch, liptriv.dependence, "factor_through_projection")
        for field in ("complex", "real"):
            code = run(["analyze", "-i", CUBE, "--field", field, "--seed", "-1"])
            assert code == 2, field
            assert "invalid input: seed" in capsys.readouterr().err
        assert factors == []

    def test_overflowing_sphere_restarts_are_dropped(self, capsys, tmp_path):
        source = tmp_path / "steep.map"
        source.write_text("ring Q[x,y]; map f: (x^100 + y)")
        code = run(["analyze", "-i", str(source), "--field", "real"])
        captured = capsys.readouterr()
        assert code == 3
        assert "Traceback" not in captured.err
        assert "flag probe_budget" in captured.out

    def test_overflowing_gradient_starts_are_dropped(self, capsys, tmp_path):
        source = tmp_path / "steep.map"
        source.write_text("ring Q[x,y]; ratmap f: (x^60/(1+y^2))")
        code, doc = run_json(capsys, ["analyze", "-i", str(source)])
        assert code == 0
        # A start of radius 10 reaches the fiber x = 0; none of 1e4 or 1e6
        # does, and every one of 1e6 overflows (its mu prints as null).
        gradient = {c["name"]: c for c in doc["checks"]}["gradient_bound"]
        assert gradient["verdict"] == "BOUNDED"
        samples = gradient["data"]["samples"]
        assert [s["jacobian_norm"] is None for s in samples] == [False, True, True, True]
        assert samples[3]["mu"] is None

    @pytest.mark.parametrize(
        "args", [["critical"], ["analyze", "--field", "real"], ["compare"]], ids=lambda a: a[0]
    )
    def test_critical_value_past_the_float_range_exit_zero(self, capsys, tmp_path, args):
        # The one critical value, 7^400, has no float: it is printed as null
        # with no witness, and the real probes fall back to the rational grid.
        source = tmp_path / "far.map"
        source.write_text("ring Q[x]; map f: (x^2 + 7^400)")
        code = run(args + ["-i", str(source), "--output", "json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        doc = json.loads(captured.out)
        if args[0] == "compare":
            assert doc["real_ltv"] == "real complement"
            return
        real = doc if args[0] == "critical" else doc["ltv_real"]
        roots = real["real_roots" if args[0] == "critical" else "critical_candidates"]
        assert [(r["approx"], r["status"]) for r in roots] == [(None, "candidate_only")]
        if args[0] == "analyze":
            assert [e["value"] for e in real["probe_table"]] == [[1.0], [0.0], [2.0]]

    def test_unwritable_json_path_exit_two(self, capsys, tmp_path):
        target = str(tmp_path / "missing" / "x.json")
        code = run(["factor", "-i", CUBE, "--json-path", target])
        err = capsys.readouterr().err
        assert code == 2
        assert target in err

    def test_rational_rejected_for_factor(self, capsys):
        code = run(["factor", "-i", REGULOUS])
        err = capsys.readouterr().err
        assert code == 2
        assert "analyze" in err


class TestStageCounts:
    # compare reuses the real probe table's complex certificates in its
    # containment rows, so no Groebner input is computed twice.
    def _compare_counts(self, capsys, monkeypatch, source):
        import liptriv.critical
        import liptriv.dependence
        import liptriv.groebner
        import liptriv.infinity
        import liptriv.properness

        counted = {
            name: count_calls(monkeypatch, module, name)
            for module, name in (
                (liptriv.dependence, "factor_through_projection"),
                (liptriv.critical, "critical_ideal"),
                (liptriv.properness, "jelonek_ideal"),
                (liptriv.infinity, "cone_constancy_check"),
                (liptriv.infinity, "fiber_infinity"),
                (liptriv.groebner, "buchberger"),
                (liptriv.groebner, "intersect"),
            )
        }
        code, doc = run_json(capsys, ["compare", "-i", source])
        assert code == 0
        assert doc["containment"]["verdict"] == "PASS"
        counts = {name: len(calls) for name, calls in counted.items()}
        # buchberger(ideal, order, budget): the distinct (ideal, order) inputs.
        counts["buchberger_inputs"] = len({args[:2] for args, _ in counted["buchberger"]})
        return counts

    def test_compare_runs_each_exact_stage_once(self, capsys, monkeypatch):
        assert self._compare_counts(capsys, monkeypatch, SIMPLE) == {
            "factor_through_projection": 1,
            "critical_ideal": 1,
            "jelonek_ideal": 1,
            "cone_constancy_check": 1,
            "fiber_infinity": 3,
            "buchberger": 10,
            "buchberger_inputs": 10,
            "intersect": 1,
        }

    def test_compare_on_cube_runs_each_exact_stage_once(self, capsys, monkeypatch):
        assert self._compare_counts(capsys, monkeypatch, CUBE) == {
            "factor_through_projection": 1,
            "critical_ideal": 1,
            "jelonek_ideal": 1,
            "cone_constancy_check": 1,
            "fiber_infinity": 3,
            "buchberger": 11,
            "buchberger_inputs": 11,
            "intersect": 0,
        }

    def test_factor_parses_input_once(self, capsys, monkeypatch):
        import liptriv.parsing

        parses = count_calls(monkeypatch, liptriv.parsing, "parse_input")
        assert run(["factor", "-i", SIMPLE]) == 0
        capsys.readouterr()
        assert len(parses) == 1


class TestProbeTube:
    def test_empty_value_chunks_are_skipped(self, capsys):
        args = ["probe", "-i", CUBE, "--radii", "10,100", "--output", "json", "--values"]
        assert run(args + ["1;2"]) == 0
        expected = capsys.readouterr().out
        assert run(args + ["1;;2"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--values", ";"], "invalid input: no values given"),
            (["--values", "1", "--tube", "1"], "invalid input: tube '1' needs two values 'c|t'"),
            (["--values", "1", "--tube", "1|1"], "invalid input: levels must differ"),
        ],
        ids=["no-values", "one-level-tube", "equal-levels-tube"],
    )
    def test_values_and_tube_rejected_before_probing(self, capsys, monkeypatch, extra, message):
        import liptriv.properness

        probes = count_calls(monkeypatch, liptriv.properness, "properness_probe_real")
        code = run(["probe", "-i", CUBE, *extra])
        assert code == 2
        assert capsys.readouterr().err == message + "\n"
        assert probes == []

    def test_malformed_tube_rejected_before_probing(self, capsys, monkeypatch):
        import liptriv.properness

        probes = count_calls(monkeypatch, liptriv.properness, "properness_probe_real")
        code = run(["probe", "-i", MOTZKIN, "--values", "0.5;2", "--tube", "1|2,3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "'2,3'" in err
        assert probes == []


class TestParserReuse:
    def test_runs_in_one_process_match_each_run_alone(self, capsys, tmp_path):
        # Subcommands, flags set on one run and left at their defaults on the
        # next, usage errors, --version and a report that cannot be written.
        runs = [
            ["analyze", "-i", SIMPLE, "--output", "json", "--seed", "7", "--max-basis", "500"],
            ["factor", "-i", SIMPLE],
            ["critical", "-i", CUBE, "--output", "json"],
            ["infinity", "-i", SIMPLE, "--values", "1,0;0,1", "--field", "real"],
            ["probe", "-i", CUBE, "--values", "2", "--radii", "10,100"],
            ["analyze", "-i", SIMPLE],
            ["analyze", "--field", "real"],
            ["jelonek", "-i", BAD, "--json-path", str(tmp_path / "missing" / "x.json")],
            ["jelonek", "-i", BAD],
            ["--version"],
            ["nosuch", "-i", SIMPLE],
            ["probe", "-i", CUBE, "--values", "2"],
        ]

        def once(args):
            code = run(args)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        alone = []
        for args in runs:
            _build_parser.cache_clear()
            alone.append(once(args))
        _build_parser.cache_clear()
        together = [once(args) for args in runs + runs[::-1]]
        assert together == alone + alone[::-1]
        assert [code for code, _, _ in alone] == [0] * 6 + [2, 2, 0, 0, 2, 0]
