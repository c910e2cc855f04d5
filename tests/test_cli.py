import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from besselhardy.cli import main, parse_config
from besselhardy.errors import ConfigError, NonLocallyIntegrable


class TestParsing:
    def test_defaults_filled(self):
        suite, cfg = parse_config(["kernel", "--alpha", "0.5", "--potential", "piece 0 8 1", "--window", "0:8", "--grid", "64:16:10"])
        assert suite == "kernel"
        assert cfg.alpha == 0.5
        assert (cfg.window.a, cfg.window.b) == (0.0, 8.0)
        assert cfg.potential.pieces == ((0.0, 8.0, 1.0),)
        assert cfg.seed == 0

    def test_negative_alpha_names_flag(self):
        with pytest.raises(ConfigError, match="--alpha"):
            parse_config(["kernel", "--alpha", "-1"])

    def test_nonintegrable_power_rejected(self):
        with pytest.raises(NonLocallyIntegrable):
            parse_config(["kernel", "--alpha", "0.5", "--potential", "power 1 2.0"])

    def test_bad_window_named(self):
        with pytest.raises(ConfigError, match="--window"):
            parse_config(["kernel", "--window", "3"])

    def test_tolerance_overrides(self):
        _, cfg = parse_config(["kernel", "--tol", "mass=1e-6", "--tol", "mc_grid=0.01"])
        assert cfg.tol("mass", 1e-8) == 1e-6
        assert cfg.tol("mc_grid", 5e-3) == 0.01
        assert cfg.tol("other", 7.0) == 7.0

    def test_main_reports_usage_error(self, capsys):
        rc = main(["kernel", "--alpha", "-2"])
        assert rc == 2
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args,flag",
        [
            (["--window", "a:b"], "--window"),
            (["--grid", "320:x:60"], "--grid"),
            (["--grid", "320:30:inf"], "--grid"),
            (["--grid", "320.5:30:60"], "--grid"),
            (["--tol", "mass=abc"], "--tol"),
            (["--tol", "mas=1e-6"], "--tol"),
            (["--potential", "piece 0 1 nan"], "--potential"),
            (["--potential-file", "{missing}"], "--potential-file"),
            (["--seed", "-1"], "--seed"),
            (["--alpha", "inf"], "--alpha"),
            (["--tol", "mass=-1"], "--tol"),
            (["--tol", "mass_quad=0"], "--tol"),
            (["--window", "4:1"], "--window"),
            (["--grid", "4:30:60"], "--grid"),
            (["--potential", "piece 0 1 1", "--potential-file", "{valid}"], "--potential"),
            (["--potential", "power 1 nan"], "--potential"),
            (["--potential", "power 1 -inf"], "--potential"),
        ],
    )
    def test_input_error_exits_2_naming_flag(self, tmp_path, capsys, args, flag):
        valid = tmp_path / "valid.txt"  # a file that loads, so only the pairing with --potential is wrong
        valid.write_text("piece 0 1 1\n")
        args = [a.format(missing=tmp_path / "missing.txt", valid=valid) for a in args]
        assert main(["kernel", *args, "--out", str(tmp_path / "out")]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_potential_file_loading(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# potential\npiece 0 4 2\n")
        _, cfg = parse_config(["section", "--potential-file", str(path)])
        assert cfg.potential.pieces == ((0.0, 4.0, 2.0),)


class TestSuites:
    def test_section_suite_passes_and_writes_artifacts(self, tmp_path):
        rc = main(
            [
                "section",
                "--alpha",
                "0.5",
                "--potential",
                "piece 0 64 1",
                "--window",
                "0:4",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "section.csv").exists()
        assert (tmp_path / "section.txt").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_passed"] is True
        assert summary["checks"][0]["name"] == "section.axioms"

    def test_zero_potential_all_fails_nonzero_exit(self, tmp_path):
        rc = main(
            [
                "all",
                "--alpha",
                "0.5",
                "--potential",
                "piece 0 1 0",
                "--window",
                "0:2",
                "--grid",
                "96:12:20",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        failed = [c for c in summary["checks"] if not c["passed"]]
        assert any(c["details"].get("error") == "DegeneratePotential" for c in failed)

    def test_kernel_suite_csv_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["kernel", "--seed", "3", "--out", str(out)]) == 0
        for name in ("kernel_normalization.csv", "kernel_gaussian.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_input_error_becomes_failed_check(self, tmp_path):
        # sections need alpha in (0, 1); the suite fails without a traceback
        rc = main(["section", "--alpha", "1.5", "--out", str(tmp_path)])
        assert rc == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [c["name"] for c in summary["checks"]] == ["section.error"]
        assert summary["checks"][0]["details"]["error"] == "InvalidInput"

    def test_all_runs_every_suite_past_an_input_error(self, tmp_path):
        rc = main(["all", "--alpha", "1.5", "--grid", "96:12:20", "--out", str(tmp_path)])
        assert rc == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        names = [c["name"] for c in summary["checks"]]
        assert "kernel.normalization" in names
        assert "semigroup.domination_contraction" in names
        assert "section.error" in names

    def test_overflow_becomes_failed_check(self, tmp_path, capsys):
        # V = x^400: its closed-form integrals overflow a float, which
        # potential_integral and cell_means reject, and it is not finite at
        # the grid nodes past x of about 5.9, which the semigroup suite's
        # evolution rejects, both without a numpy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["all", "--potential", "power 1 -400", "--grid", "96:12:20", "--out", str(tmp_path)])
        assert rc == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        summary = json.loads((tmp_path / "summary.json").read_text())
        errors = {c["name"]: c["details"]["error"] for c in summary["checks"] if c["name"].endswith(".error")}
        assert set(errors) == {"section.error", "semigroup.error", "hardy.error", "conditions.error"}
        assert set(errors.values()) == {"InvalidInput"}

    def test_summary_passed_is_a_json_boolean(self, tmp_path):
        # a numpy bool in a check's result once reached summary.json as "True"
        main(["semigroup", "--grid", "96:12:20", "--out", str(tmp_path)])
        summary = json.loads((tmp_path / "summary.json").read_text())
        names = [c["name"] for c in summary["checks"]]
        assert "semigroup.constant_potential" in names
        assert all(type(c["passed"]) is bool for c in summary["checks"])


def test_import_loads_no_scipy():
    # scipy costs most of an import of the CLI; the library must not need it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, besselhardy, besselhardy.cli; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
