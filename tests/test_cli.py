"""Command-line interface: subcommands, exit codes, schema, determinism."""

import json

from conftest import DATA_DIR, count_calls
from liptriv.cli import run

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

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("LTV_SEED", "7")
        _, doc = run_json(capsys, ["analyze", "-i", CUBE, "--field", "complex"])
        assert doc["seed"] == 7

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

    def test_bad_tolerances_exit_two(self, capsys, monkeypatch):
        import liptriv.dependence

        factors = count_calls(monkeypatch, liptriv.dependence, "factor_through_projection")
        for extra in (
            ["--tol-zero", "nan"],
            ["--tol-zero", "0"],
            ["--mu-floor", "-1"],
            ["--mu-floor", "inf"],
        ):
            code = run(["analyze", "-i", CUBE, "--field", "real", *extra])
            err = capsys.readouterr().err
            assert code == 2, extra
            assert "invalid input" in err, extra
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

    def test_negative_seed_exit_two_before_any_stage(self, capsys, monkeypatch):
        import liptriv.dependence

        factors = count_calls(monkeypatch, liptriv.dependence, "factor_through_projection")
        for field in ("complex", "real"):
            code = run(["analyze", "-i", CUBE, "--field", field, "--seed", "-1"])
            assert code == 2, field
            assert "invalid input: seed" in capsys.readouterr().err
        monkeypatch.setenv("LTV_SEED", "-1")
        code = run(["analyze", "-i", CUBE, "--field", "real"])
        assert code == 2
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
        assert {c["name"]: c["verdict"] for c in doc["checks"]}["gradient_bound"] == "NO_SAMPLES"

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
            "buchberger": 20,
            "buchberger_inputs": 20,
            "intersect": 2,
        }

    def test_compare_on_cube_runs_each_exact_stage_once(self, capsys, monkeypatch):
        assert self._compare_counts(capsys, monkeypatch, CUBE) == {
            "factor_through_projection": 1,
            "critical_ideal": 1,
            "jelonek_ideal": 1,
            "cone_constancy_check": 1,
            "fiber_infinity": 3,
            "buchberger": 19,
            "buchberger_inputs": 19,
            "intersect": 0,
        }

    def test_factor_parses_input_once(self, capsys, monkeypatch):
        import liptriv.parsing

        parses = count_calls(monkeypatch, liptriv.parsing, "parse_input")
        assert run(["factor", "-i", SIMPLE]) == 0
        capsys.readouterr()
        assert len(parses) == 1


class TestProbeTube:
    def test_malformed_tube_rejected_before_probing(self, capsys, monkeypatch):
        import liptriv.properness

        probes = count_calls(monkeypatch, liptriv.properness, "properness_probe_real")
        code = run(["probe", "-i", MOTZKIN, "--values", "0.5;2", "--tube", "1|2,3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "'2,3'" in err
        assert probes == []
