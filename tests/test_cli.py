import json

import pytest

from stochrec.cli import _write_json, main


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def scrub_manifest(payload: dict) -> dict:
    payload = json.loads(json.dumps(payload))
    payload["manifest"]["started_at"] = ""
    payload["manifest"]["finished_at"] = ""
    return payload


def csv_parts(path):
    """Split a report CSV into (scrubbed manifest, data lines)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# manifest: ")
    manifest = json.loads(lines[0].removeprefix("# manifest: "))
    manifest["started_at"] = ""
    manifest["finished_at"] = ""
    return manifest, lines[1:]


class TestSimulate:
    def test_writes_expected_rows(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "fractional", "10", "--seed", "7", "--out", str(out)]) == 0
        manifest, lines = csv_parts(out)
        assert lines[0] == "index,x,xi"
        assert len(lines) == 1 + 11  # header plus steps+1 state rows
        assert manifest["parameters"]["map"] == "fractional"
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == ""

    def test_single_step(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["simulate", "contraction:a=0.5", "1", "--out", str(out)]) == 0
        _, lines = csv_parts(out)
        assert len(lines) == 1 + 2

    def test_deterministic_repeat(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "fractional", "25", "--seed", "11", "--out", str(a)])
        main(["simulate", "fractional", "25", "--seed", "11", "--out", str(b)])
        assert csv_parts(a) == csv_parts(b)

    def test_unknown_map_exit_2(self, tmp_path):
        assert main(["simulate", "bogus", "10", "--out", str(tmp_path / "x.csv")]) == 2

    def test_bad_steps_exit_2(self, tmp_path):
        assert main(["simulate", "fractional", "0", "--out", str(tmp_path / "x.csv")]) == 2

    def test_io_failure_exit_3(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["simulate", "fractional", "3", "--out", str(missing)]) == 3


class TestHopfCheck:
    def test_constructed_measure_passes(self, tmp_path):
        out = tmp_path / "hopf.json"
        code = main(
            [
                "hopf-check",
                "fractional",
                "--particles",
                "2000",
                "--window",
                "12",
                "--specs",
                "16",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = read_json(out)
        assert payload["passed"] is True
        assert payload["max_residual"] <= 1e-9
        report = payload["reports"][0]
        assert sorted(report) == ["lhs_im", "lhs_re", "residual", "rhs_im", "rhs_re", "spec"]

    def test_perturbed_measure_fails(self, tmp_path):
        out = tmp_path / "hopf.json"
        code = main(
            [
                "hopf-check",
                "fractional",
                "--particles",
                "2000",
                "--window",
                "12",
                "--specs",
                "16",
                "--seed",
                "1",
                "--perturb",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert read_json(out)["max_residual"] > 0.01

    def test_single_particle_passes(self, tmp_path):
        out = tmp_path / "hopf.json"
        args = ["hopf-check", "fractional", "--particles", "1", "--window", "6", "--specs", "4"]
        assert main(args + ["--out", str(out)]) == 0

    def test_window_too_small_exit_2(self, tmp_path):
        args = ["hopf-check", "fractional", "--window", "2", "--out", str(tmp_path / "x.json")]
        assert main(args) == 2


class TestDiagnose:
    def test_unknown_suite_exit_2(self, capsys):
        assert main(["diagnose", "nosuchsuite"]) == 2
        capsys.readouterr()

    def test_rotation_suite(self, tmp_path):
        out = tmp_path / "rot.json"
        code = main(
            ["diagnose", "rotation", "--t", "1.0471975512", "--n", "20000", "--seed", "42",
             "--out", str(out)]
        )
        assert code == 0
        payload = read_json(out)
        assert payload["passed"] is True
        assert payload["reports"][0]["test_name"] == "rotation_invariance"

    def test_tsirelson_suite(self, tmp_path):
        out = tmp_path / "ts.json"
        code = main(
            ["diagnose", "tsirelson", "--n", "5000", "--particles", "2000", "--seed", "42",
             "--out", str(out)]
        )
        assert code == 0
        names = [r["test_name"] for r in read_json(out)["reports"]]
        assert names == ["tsirelson", "conditional_char"]

    def test_consistency_suite(self, tmp_path):
        out = tmp_path / "co.json"
        code = main(
            ["diagnose", "consistency", "--pairs", "25", "--particles", "100", "--seed", "3",
             "--out", str(out)]
        )
        assert code == 0
        report = read_json(out)["reports"][0]
        assert report["statistic"] == 0.0

    def test_equivariance_suite(self, tmp_path):
        out = tmp_path / "eq.json"
        code = main(
            ["diagnose", "equivariance", "--shifts", "1,2,5", "--particles", "200",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0

    def test_stationarity_suite(self, tmp_path):
        out = tmp_path / "st.json"
        code = main(
            ["diagnose", "stationarity", "--n", "200", "--particles", "100",
             "--shifts", "1,2", "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        assert len(read_json(out)["reports"]) == 2

    def test_tsirelson_raw_output(self, tmp_path):
        out, raw = tmp_path / "ts.json", tmp_path / "raw.csv"
        code = main(
            ["diagnose", "tsirelson", "--n", "500", "--particles", "200", "--seed", "1",
             "--out", str(out), "--raw-out", str(raw)]
        )
        assert code == 0
        manifest, lines = csv_parts(raw)
        assert lines[0] == "replica,x"
        assert len(lines) == 1 + 500
        assert manifest["command"] == "diagnose-raw"

    def test_raw_output_rejected_elsewhere(self, tmp_path):
        code = main(
            ["diagnose", "rotation", "--n", "200", "--out", str(tmp_path / "r.json"),
             "--raw-out", str(tmp_path / "raw.csv")]
        )
        assert code == 2

    def test_conditional_law_suite(self, tmp_path):
        out = tmp_path / "cl.json"
        code = main(
            ["diagnose", "conditional-law", "--n", "150", "--particles", "3000",
             "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        names = [r["test_name"] for r in read_json(out)["reports"]]
        assert names == ["conditional_law", "conditional_law:shift=1"]


class TestDeterminism:
    def test_repeat_runs_identical_payloads(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["diagnose", "tsirelson", "--n", "2000", "--particles", "500", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert scrub_manifest(read_json(a)) == scrub_manifest(read_json(b))

    @pytest.mark.parametrize("threads", ["2", "4"])
    def test_thread_count_invisible_in_payload(self, tmp_path, threads):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["diagnose", "stationarity", "--n", "150", "--particles", "80",
                "--shifts", "1", "--seed", "5"]
        assert main(base + ["--threads", "1", "--out", str(a)]) == 0
        assert main(base + ["--threads", threads, "--out", str(b)]) == 0
        assert scrub_manifest(read_json(a)) == scrub_manifest(read_json(b))


class TestBadInput:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, threads):
        out = tmp_path / "x.csv"
        assert main(["simulate", "fractional", "3", "--threads", threads, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_non_finite_angle_exit_2(self, tmp_path, capsys, angle):
        out = tmp_path / "rot.json"
        code = main(["diagnose", "rotation", f"--t={angle}", "--n", "200", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_report_writer_is_strict_json(self, tmp_path, value):
        # NaN and Infinity are not JSON: refuse them and leave no file
        out = tmp_path / "r.json"
        with pytest.raises(ValueError, match="non-finite"):
            _write_json(str(out), {"reports": [{"statistic": value}]})
        assert not out.exists()

    def test_negative_shift_runs(self, tmp_path):
        out = tmp_path / "st.json"
        code = main(
            ["diagnose", "stationarity", "--n", "150", "--particles", "80",
             "--shifts=-2", "--seed", "5", "--out", str(out)]
        )
        assert code in (0, 1)
        names = [r["test_name"] for r in read_json(out)["reports"]]
        assert names == ["stationarity:shift=-2"]

    def test_negative_spec_count_exit_2(self, tmp_path, capsys):
        out = tmp_path / "hopf.json"
        code = main(
            ["hopf-check", "fractional", "--particles", "50", "--specs", "-5", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert "nonnegative" in capsys.readouterr().err

    def test_zero_shift_equivariance_exit_2(self, tmp_path, capsys):
        out = tmp_path / "eq.json"
        code = main(
            ["diagnose", "equivariance", "--shifts", "1,0", "--particles", "50",
             "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert "vacuous" in capsys.readouterr().err

    def test_out_of_memory_exit_2(self, tmp_path, capsys):
        # the particle array alone would take petabytes; numpy refuses the
        # allocation outright, before anything is written
        out = tmp_path / "hopf.json"
        code = main(
            ["hopf-check", "fractional", "--particles", "1000000000000000", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert "out of memory" in capsys.readouterr().err
