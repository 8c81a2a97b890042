import dataclasses
import hashlib
import json
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from stochrec import cli, diagnostics, measure_solution
from stochrec.cli import _write_json, main
from stochrec.recurrence import NoiseModel


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

    @staticmethod
    def record_steps(monkeypatch, events):
        """Log each map apply and each clock reading in ``events``, in call order.

        A clock reading returns its own position in ``events`` as the timestamp.
        """
        parse = cli.update_map_from_name

        def traced_map(text):
            update_map = parse(text)

            def apply(x, xi):
                events.append("apply")
                return update_map.apply(x, xi)

            return dataclasses.replace(update_map, apply=apply)

        def now():
            events.append("now")
            return str(len(events) - 1)

        monkeypatch.setattr(cli, "update_map_from_name", traced_map)
        monkeypatch.setattr(cli, "_utc_now", now)

    def test_finished_at_follows_last_step(self, tmp_path, monkeypatch):
        events = []
        self.record_steps(monkeypatch, events)
        out = tmp_path / "sim.csv"
        steps = cli._CHUNK + 1  # two noise windows
        assert main(["simulate", "fractional", str(steps), "--out", str(out)]) == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        manifest = json.loads(header.removeprefix("# manifest: "))
        started, finished = int(manifest["started_at"]), int(manifest["finished_at"])
        applies = [i for i, event in enumerate(events) if event == "apply"]
        assert len(applies) == steps
        assert events[started] == events[finished] == "now"
        assert started < applies[0] and applies[-1] < finished

    def test_io_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        # a missing --out directory is refused before the first step
        events = []
        self.record_steps(monkeypatch, events)
        missing = tmp_path / "no" / "such" / "dir"
        args = ["simulate", "fractional", "1000", "--out", str(missing / "x.csv")]
        assert main(args) == 3
        assert "apply" not in events
        assert str(missing) in capsys.readouterr().err

    def test_memory_does_not_grow_with_steps(self, tmp_path):
        def peak(steps):
            tracemalloc.start()
            try:
                args = ["simulate", "fractional", str(steps), "--out", str(tmp_path / "m.csv")]
                assert main(args) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the rows stream out chunk by chunk, so four times the steps is not four times the memory
        assert peak(400_000) < 1.5 * peak(100_000)


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

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the sizes were checked")

        monkeypatch.setattr(cli, "conditional_measure", refuse)
        monkeypatch.setattr(NoiseModel, "window", refuse)

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--window", "2"], "too short for any probe"),
            (["--window", "1"], "too short for any probe"),
            (["--window", "0"], "too short for any probe"),
            (["--window=-3"], "too short for any probe"),
            (["--particles", "0"], "particle_count must be positive"),
        ],
    )
    def test_bad_size_refused_before_any_work(self, tmp_path, capsys, no_work, extra, message):
        out = tmp_path / "hopf.json"
        assert main(["hopf-check", "fractional", *extra, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestHopfCheckThreads:
    """Probes on at least two parts' worth of particles split over the CPUs."""

    def run(self, tmp_path, name, extra=()):
        out = tmp_path / f"{name}.json"
        args = ["hopf-check", "fractional", "--particles", str(2 * measure_solution._PART_ROWS),
                "--perturb", "--seed", "3", *extra, "--out", str(out)]
        assert main(args) == 1
        return TestGoldenPayloads.digest(out)

    def test_payload_ignores_threads_and_cpus(self, tmp_path, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        started, per_side = [], []
        plain_start, plain_kernel = threading.Thread.start, measure_solution._probe_integral

        def start(thread):
            started.append(thread)
            plain_start(thread)

        def kernel(columns, freqs):
            before = len(started)
            value = plain_kernel(columns, freqs)
            per_side.append(len(started) - before)
            return value

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setattr(measure_solution, "_probe_integral", kernel)
        digests = [self.run(tmp_path, t, ["--threads", t]) for t in ("1", "100000")]
        # 77 left sides and one right side per probe reading the shuffled column
        assert len(per_side) > 2 * 77
        assert set(per_side) == {min(cpus, 2) - 1} and max(per_side) <= cpus - 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        del per_side[:]
        digests.append(self.run(tmp_path, "one-cpu"))
        assert set(per_side) == {0}
        assert digests[0] == digests[1] == digests[2]

    def test_worker_memory_error_exits_2(self, tmp_path, monkeypatch, capsys):
        plain = np.sin

        def sin(x, out):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("part")
            return plain(x, out=out)

        monkeypatch.setattr(np, "sin", sin)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(measure_solution, "_PART_ROWS", 500)
        out = tmp_path / "hopf.json"
        args = ["hopf-check", "fractional", "--particles", "2000", "--out", str(out)]
        assert main(args) == 2
        assert not out.exists()
        assert "out of memory" in capsys.readouterr().err


class TestGoldenPayloads:
    """Small payloads pinned by SHA-256, timestamps scrubbed.

    Any ulp change in a probe value, a simulated state or a drawn sample
    changes the digest, so a layout, summation-order or scalar-path change
    shows up here without running the benchmark.  Recorded on x86-64 with
    numpy 2.4.6.
    """

    @staticmethod
    def digest(path) -> str:
        text = path.read_text(encoding="utf-8")
        text = re.sub(r'"started_at": "[^"]*"', '"started_at": ""', text)
        text = re.sub(r'"finished_at": "[^"]*"', '"finished_at": ""', text)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize(
        "extra, code, digest",
        [
            ([], 0, "8c68988e726fb9f80132d9767fd6dfe0f45d6e2ee22cc50877bf89f55b3d3d0c"),
            (
                ["--perturb"],
                1,
                "42aa2686cb1aed3b359e9867d194d3944e844e7da4e21899d17b108389eae033",
            ),
        ],
    )
    def test_hopf_check_payload(self, tmp_path, extra, code, digest):
        assert self.hopf_digest(tmp_path, "fractional", extra, code) == digest

    @pytest.mark.parametrize(
        "extra, code, digest",
        [
            ([], 0, "be42834b14a87fa54075b19bd8f6e46badf8a030203471462fd569025bfeb92e"),
            (
                ["--perturb"],
                1,
                "f8ada01782f13d6d16a0ef3f417a9bc8da913d6533ac74e9f806bc0d11c9e0b9",
            ),
        ],
    )
    def test_hopf_check_contraction_payload(self, tmp_path, extra, code, digest):
        assert self.hopf_digest(tmp_path, "contraction:a=0.5", extra, code) == digest

    def hopf_digest(self, tmp_path, map_name, extra, code) -> str:
        out = tmp_path / "hopf.json"
        args = ["hopf-check", map_name, "--particles", "1000", "--window", "8", "--seed", "3"]
        assert main(args + extra + ["--out", str(out)]) == code
        return self.digest(out)

    @pytest.mark.parametrize(
        "map_name, digest",
        [
            ("fractional", "2e65cc0c4cb48e065380b6ced853c0513ba8f37496d821dd7aa89f581f197705"),
            (
                "contraction:a=0.5",
                "a6e95a3a200da6fed6b7debb2bfe303529875a514d87360d7f9d27f7ab782931",
            ),
        ],
    )
    def test_simulate_payload(self, tmp_path, map_name, digest):
        out = tmp_path / "sim.csv"
        assert main(["simulate", map_name, "2000", "--seed", "3", "--out", str(out)]) == 0
        assert self.digest(out) == digest

    def test_conditional_law_payload(self, tmp_path):
        out = tmp_path / "law.json"
        args = ["diagnose", "conditional-law", "--n", "150", "--particles", "3000", "--seed", "3"]
        assert main(args + ["--out", str(out)]) == 0
        assert self.digest(out) == (
            "eb584045fca1612dacf136de3e50029242502278cc357783c8a9a45acd572caa"
        )

    @pytest.mark.parametrize(
        "extra, digest",
        [
            (
                ["stationarity", "--n", "100"],
                "38816b793f4c6dea69b8978508321afe5b21e40eb007c4a5b55ee28b65544a0f",
            ),
            (["equivariance"], "f697b60bf39f0b4f907e432ae717158807959c995129d1c73a98ce3ef48d3e1e"),
            (["consistency"], "71589bb29b29a226966d127fd314ee4efe8915da121f2f39fba92fde9a0c363f"),
        ],
    )
    def test_diagnose_payload(self, tmp_path, extra, digest):
        out = tmp_path / "diag.json"
        assert main(["diagnose", *extra, "--seed", "3", "--out", str(out)]) == 0
        assert self.digest(out) == digest

    TSIRELSON = ["diagnose", "tsirelson", "--n", "2000", "--particles", "500", "--seed", "3"]

    @pytest.mark.parametrize(
        "extra, digest, raw_digest",
        [
            (
                [],
                "fc7a2555515420490cb3c6306e3bb66b33e89dc9b47a4b93a535a2ce7e11a389",
                "13b123645622a0b865f9f309d9e95a750193614c7a0a4c4457fd088a5b127de8",
            ),
            (
                ["--index", "0"],
                "49c32437e65905d2efc3cc5a4209181a347378f746423411f4368b10d90d0227",
                "678b6c5a36c8bcde8a82487d20adc2d7ca4f7e379f0f31b983e2decfdead7057",
            ),
        ],
    )
    def test_tsirelson_payload(self, tmp_path, extra, digest, raw_digest):
        # --raw-out is a recorded parameter, so the report is pinned from a
        # run without it and the raw CSV from a second run
        out, raw = tmp_path / "ts.json", tmp_path / "raw.csv"
        assert main(self.TSIRELSON + extra + ["--out", str(out)]) == 0
        assert self.digest(out) == digest
        args = self.TSIRELSON + extra + ["--out", str(tmp_path / "ts2.json")]
        assert main(args + ["--raw-out", str(raw)]) == 0
        assert self.digest(raw) == raw_digest

    def test_rotation_payload(self, tmp_path):
        out = tmp_path / "rot.json"
        assert main(["diagnose", "rotation", "--n", "20000", "--seed", "3", "--out", str(out)]) == 0
        assert self.digest(out) == (
            "2e1dd61043fc8c5548ea464fbf4e5f912b36ffc7d918d1c8640cae5eed5551b1"
        )


# simulate --seed 3 digests, scrubbed as in TestGoldenPayloads, at the edges
# of its 1,024-row writes and of its 65,536-step chunks
CHUNK_EDGE_STEPS = (1, 1_023, 1_024, 1_025, 65_535, 65_536, 65_537, 131_073)
CHUNK_EDGE_DIGESTS = {
    "fractional": (
        "89f4e22557f39241f5328a3235fd189ecde0da67a8b5dc989266cf8383e82e64",
        "6402ef709f336f51b78593fed2f574b802e6cb423f58112b2158f20891221778",
        "e3515996a8020ffe0aa4fbc134bae24bb72430806422a259fee2f347e75bca1d",
        "cafdc7b29840208ebf7b92b14b6feb916dc2e504d3c75b47c005459df71d1da5",
        "ab9b0a9140e6df756f778fb9ad1cd86fc23f41c305826cd0eeb94865bb584f92",
        "0ecea7814354a869a5a761bb9578c7d8d2871668656c8551a63c3f522b8a4b2e",
        "7902fa7729e947b469a8a773a834a2f243b529cbb81a88a5820cda1afe764de0",
        "adef7d246d391c479163279c4487ff6bc8d85eeb35e53082f3eba307ee26d56d",
    ),
    "contraction:a=0.5": (
        "6ccf5f0f07923a01f57627d697838494f0b78511f3dc1f1b4114948d7a7ecbc4",
        "a9a039aa0753f196e6bce99b4f34eec72e45affd3a02e56659b879f586217d32",
        "1f8e0f80fa972f23233287007a04b238662d6eb2cfb562da1bbcc28a82820b4c",
        "11a8b92ac253b89f504226bc518d393a09a8638877b417d4cb545e5fc8a5a237",
        "02586edcbf4a3255dfdda56a2de6430787b32ee6e94b774cd65f35b7a86fd0bd",
        "e6840fb836b35d40ab80b104a44dbbf6343967928ade1549ffe9b85f874947d5",
        "0bf5871620fc2945932178bf32f9c969125d06f3d4963429c846ba14fe3abadb",
        "114eb816ec04f8fc89549f37af1a0ff82cb4606e9ed8afc3353404ffa30baad4",
    ),
}


class TestSimulateChunkEdges:
    """``simulate`` payloads at the edges of its 1,024-row writes and its
    65,536-step chunks, pinned like :class:`TestGoldenPayloads`: an edge that
    drops, repeats or reorders a row changes the digest."""

    @pytest.mark.parametrize(
        "map_name, steps, digest",
        [
            pytest.param(m, n, h, id=f"{m}-{n}")
            for m, hs in CHUNK_EDGE_DIGESTS.items()
            for n, h in zip(CHUNK_EDGE_STEPS, hs, strict=True)
        ],
    )
    def test_simulate_payload(self, tmp_path, map_name, steps, digest):
        out = tmp_path / "sim.csv"
        assert main(["simulate", map_name, str(steps), "--seed", "3", "--out", str(out)]) == 0
        assert TestGoldenPayloads.digest(out) == digest


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

    @pytest.mark.parametrize("raw", [False, True])
    def test_tsirelson_draws_its_replicas_once(self, tmp_path, monkeypatch, raw):
        # the five-sigma report and the raw rows read one array
        passes = []
        samples = diagnostics.tsirelson_samples

        def counted(*args, **kwargs):
            passes.append(args)
            return samples(*args, **kwargs)

        monkeypatch.setattr(cli, "tsirelson_samples", counted)
        monkeypatch.setattr(diagnostics, "tsirelson_samples", counted)
        args = ["diagnose", "tsirelson", "--n", "500", "--particles", "200",
                "--out", str(tmp_path / "ts.json")]
        assert main(args + (["--raw-out", str(tmp_path / "raw.csv")] if raw else [])) == 0
        assert len(passes) == 1

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

    @pytest.mark.parametrize(
        "extra, config",
        [
            *(
                (["--seed", str(seed)], (300, 10_000, seed, (0, 9)))
                for seed in range(5)
            ),
            (
                ["--n", "137", "--particles", "57", "--window-lo", "-5"],
                (137, 57, 0, (-5, 4)),
            ),
        ],
        ids=[*(f"seed{seed}" for seed in range(5)), "small"],
    )
    def test_conditional_law_is_one_library_call(self, tmp_path, extra, config):
        # the CLI writes exactly the reports of diagnostics.conditional_law_suite
        out = tmp_path / "cl.json"
        assert main(["diagnose", "conditional-law", *extra, "--out", str(out)]) in (0, 1)
        n, particles, seed, window = config
        cfg = diagnostics.DiagnosticsConfig(n, particles, 0.01, seed, window)
        reports = diagnostics.conditional_law_suite(0.8, 0.5, cfg)
        assert read_json(out)["reports"] == [r.as_dict() for r in reports]


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


class TestIndexRange:
    """Windows anywhere in the 64-bit index space run like windows near 0."""

    @pytest.mark.parametrize(
        "args",
        [
            ["consistency", "--window-lo", "9223372036854775800"],
            ["stationarity", "--window-lo", "9223372036854775808", "--n", "100"],
            ["equivariance", "--window-lo", "9223372036854775808"],
            ["conditional-law", "--window-lo", "9223372036854775807"],
        ],
        ids=lambda args: args[0],
    )
    def test_window_at_2_63_exits_0(self, tmp_path, args):
        out = tmp_path / "diag.json"
        assert main(["diagnose", *args, "--out", str(out)]) == 0
        assert read_json(out)["passed"] is True


class TestBadInput:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, threads):
        out = tmp_path / "x.csv"
        assert main(["simulate", "fractional", "3", "--threads", threads, "--out", str(out)]) == 2
        assert not out.exists()

    def test_huge_thread_count_starts_no_thread(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("the CLI must not start a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["diagnose", "stationarity", "--n", "150", "--particles", "80",
                "--shifts", "1", "--seed", "5"]
        assert main(base + ["--threads", "1", "--out", str(a)]) == 0
        assert main(base + ["--threads", "100000", "--out", str(b)]) == 0
        assert scrub_manifest(read_json(a)) == scrub_manifest(read_json(b))

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

    def test_negative_first_shift_list_runs(self, tmp_path):
        # a list led by a negative shift needs the --shifts=-2,1 form; reports keep its order
        out = tmp_path / "st.json"
        code = main(
            ["diagnose", "stationarity", "--n", "150", "--particles", "80",
             "--shifts=-2,1", "--seed", "5", "--out", str(out)]
        )
        assert code in (0, 1)
        names = [r["test_name"] for r in read_json(out)["reports"]]
        assert names == ["stationarity:shift=-2", "stationarity:shift=1"]

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

    def test_zero_shift_stationarity_exit_2_before_any_build(
        self, tmp_path, capsys, monkeypatch
    ):
        # shift 1 used to run its full comparison before shift 0 was refused
        def no_build(*args):
            raise AssertionError("a measure was built")

        monkeypatch.setattr(diagnostics, "conditional_measure_sampler", no_build)
        out = tmp_path / "st.json"
        code = main(["diagnose", "stationarity", "--shifts", "1,0", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "vacuous" in capsys.readouterr().err

    def test_consistency_window_too_short_exit_2(self, tmp_path, capsys):
        # a window of one step leaves no index to split past from future at
        out = tmp_path / "c.json"
        code = main(["diagnose", "consistency", "--window-hi", "1", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "got window [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("window_hi", ["1", "2"])
    def test_conditional_law_window_too_short_exit_2(
        self, tmp_path, capsys, monkeypatch, window_hi
    ):
        # the shifted rectangles need three steps; refuse before the demo runs
        demo_calls = []
        demo = diagnostics.conditional_law_demo
        monkeypatch.setattr(
            diagnostics,
            "conditional_law_demo",
            lambda *a, **k: demo_calls.append(a) or demo(*a, **k),
        )
        out = tmp_path / "cl.json"
        code = main(
            ["diagnose", "conditional-law", "--window-hi", window_hi, "--n", "100",
             "--particles", "100", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert f"got window [0, {window_hi}]" in capsys.readouterr().err
        assert demo_calls == []

    def test_conditional_law_shifted_rectangle_exit_2(self, tmp_path, capsys):
        # window [0, 2] holds both rectangles, at 1 and 2, but its shift by 1
        # is [-1, 1], which the one at 2 leaves; stationarity's check refuses it
        out = tmp_path / "cl.json"
        code = main(
            ["diagnose", "conditional-law", "--window-hi", "2", "--n", "100",
             "--particles", "100", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "stochrec: rectangle at [2, 2] leaves the window after shifting by 1, "
            "got window [0, 2]\n"
        )

    def test_conditional_law_bad_size_reported_before_window(self, tmp_path, capsys):
        # the sizes are checked when the config is built, before the rectangles
        out = tmp_path / "cl.json"
        code = main(
            ["diagnose", "conditional-law", "--window-hi", "1", "--n", "10", "--out", str(out)]
        )
        assert code == 2
        assert "sample_size must be at least 100" in capsys.readouterr().err

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
