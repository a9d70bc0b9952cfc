import hashlib
import json

import numpy as np
import pytest

import delaykit as dk
from delaykit import cli, estimators
from delaykit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(path):
    return [ln for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]


@pytest.fixture()
def henon_file(tmp_path, capsys):
    p = tmp_path / "henon.txt"
    code, _, _ = run_cli(capsys, "generate", "--system", "henon",
                         "--n", "3000", "--transient", "500",
                         "--seed", "3", "-o", str(p))
    assert code == 0
    return p


class TestGenerate:
    def test_logistic_line_count(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        code, _, _ = run_cli(capsys, "generate", "--system", "logistic",
                             "--r", "3.65", "--x0", "0.5", "--n", "100",
                             "-o", str(out))
        assert code == 0
        assert len(data_lines(out)) == 100

    def test_lorenz96_full_scale_invocation(self, tmp_path, capsys):
        out = tmp_path / "l96.txt"
        code, _, _ = run_cli(capsys, "generate", "--system", "lorenz96",
                             "--K", "22", "--F", "5", "--dt", "0.015625",
                             "--steps", "60000", "--transient", "10000",
                             "--seed", "7", "-o", str(out))
        assert code == 0
        assert len(data_lines(out)) == 50000

    @pytest.mark.parametrize("argv,digest", [
        (["lorenz96", "--K", "22", "--F", "5", "--dt", "0.015625", "--steps", "60000",
          "--transient", "10000", "--seed", "7"],
         "f81cafe607ed39b420b8c81f3a7c53ebbc920f89697c706c104859d69b5ae4fd"),
        (["lorenz63", "--steps", "20000", "--transient", "1000", "--seed", "3"],
         "c52b82e0f069938c58f5b77d7c85b1ef42e78e8098d8fe7742d6fcd72b2da5c5"),
        (["rossler", "--dt", "0.0625", "--steps", "20000", "--transient", "1000",
          "--seed", "4", "--observed-index", "2"],
         "26840ae5634507f2755b7414c7b94257610aa5ea453c6b7c8422bdd8b6037ac1"),
    ], ids=["lorenz96-readme", "lorenz63", "rossler"])
    def test_flow_files_are_pinned(self, tmp_path, capsys, argv, digest):
        # Whole files, header included, recorded from the integrators that
        # came before the generated float steppers (the array loop for
        # Lorenz 96, a hand-written float loop for the 3-D flows): a change
        # to any trajectory or to the file writer fails here.
        out = tmp_path / "flow.txt"
        code, _, err = run_cli(capsys, "generate", "--system", *argv, "-o", str(out))
        assert code == 0, err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_henon_seed_that_used_to_diverge(self, tmp_path, capsys):
        # the first draw of seed 231 leaves the basin and diverged at step 10
        out = tmp_path / "h.txt"
        code, _, err = run_cli(capsys, "generate", "--system", "henon",
                               "--n", "500", "--seed", "231", "-o", str(out))
        assert code == 0, err
        assert len(data_lines(out)) == 500

    def test_invalid_dimension_exits_one_without_file(self, tmp_path, capsys):
        out = tmp_path / "bad.txt"
        code, _, err = run_cli(capsys, "generate", "--system", "lorenz96",
                               "--K", "2", "--steps", "100", "--seed", "1",
                               "-o", str(out))
        assert code == 1
        assert not out.exists()
        assert "K" in err

    def test_requires_x0_or_seed(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "generate", "--system", "logistic",
                               "--n", "10", "-o", str(tmp_path / "x.txt"))
        assert code == 1

    def test_metadata_header_records_invocation(self, tmp_path, capsys):
        out = tmp_path / "h.txt"
        run_cli(capsys, "generate", "--system", "logistic", "--x0", "0.25",
                "--n", "10", "-o", str(out))
        header = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
        assert header[0] == "# delaykit generate"
        assert any("r=3.65" in ln for ln in header)

    def test_seeded_runs_are_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            run_cli(capsys, "generate", "--system", "henon", "--n", "500",
                    "--seed", "9", "-o", str(path))
        assert a.read_text() == b.read_text()

    def test_omitted_sampling_flags_take_defaults(self, tmp_path, capsys):
        for system, count, recorded in [
                ("lorenz63", 10000, ["dt=0.015625", "steps=10000"]),
                ("henon", 10000, ["n=10000"])]:
            out = tmp_path / f"{system}.txt"
            code, _, _ = run_cli(capsys, "generate", "--system", system,
                                 "--seed", "2", "-o", str(out))
            assert code == 0
            assert len(data_lines(out)) == count
            header = out.read_text().splitlines()
            assert all(f"# {line}" in header for line in recorded)

    def test_stray_flag_writes_no_file(self, tmp_path, capsys):
        out = tmp_path / "h.txt"
        code, _, err = run_cli(capsys, "generate", "--system", "henon",
                               "--dt", "0.1", "--seed", "1", "-o", str(out))
        assert code == 1
        assert not out.exists()
        assert err == "error: henon takes no --dt\n"

    def test_help_names_parameter_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--help")
        assert code == 0
        text = " ".join(out.split())
        assert "default: None" not in text
        for line in ["--sigma SIGMA lorenz63 sigma (default: 10.0)",
                     "--rho RHO lorenz63 rho (default: 28.0)",
                     "--beta BETA lorenz63 beta (default: 2.6666666666666665)",
                     "--K K lorenz96 dimension (default: 22)",
                     "--F F lorenz96 forcing (default: 5.0)",
                     "--a A rossler/henon a (default: 0.15 for rossler, 1.4 for henon)",
                     "--b B rossler/henon b (default: 0.2 for rossler, 0.3 for henon)",
                     "--c C rossler c (default: 10.0)",
                     "--r R logistic r (default: 3.65)"]:
            assert line in text

    def test_dump_config(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        cfg = tmp_path / "cfg.txt"
        run_cli(capsys, "generate", "--system", "logistic", "--x0", "0.5",
                "--n", "10", "-o", str(out), "--dump-config", str(cfg))
        entries = dict(ln.split("=", 1) for ln in cfg.read_text().splitlines())
        assert entries["command"] == "generate"
        assert entries["system"] == "logistic"
        assert entries["n"] == "10"


class TestSweep:
    def test_atau_argmax_on_henon(self, henon_file, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        best = tmp_path / "best.json"
        code, _, _ = run_cli(capsys, "sweep", "--mode", "atau",
                             "--m", "1:3", "--tau", "1:3",
                             "-i", str(henon_file), "-o", str(grid),
                             "--argmax-json", str(best))
        assert code == 0
        payload = json.loads(best.read_text())
        assert (payload["m"], payload["tau"]) == (2, 1)
        rows = data_lines(grid)
        assert rows[0] == "m,tau,value"
        assert len(rows) == 1 + 9

    def test_single_cell_both_modes(self, henon_file, tmp_path, capsys):
        for mode in ("atau", "mase"):
            out = tmp_path / f"{mode}.csv"
            code, _, _ = run_cli(capsys, "sweep", "--mode", mode,
                                 "--m", "2", "--tau", "1",
                                 "-i", str(henon_file), "-o", str(out))
            assert code == 0
            rows = data_lines(out)
            assert len(rows) == 2
            assert rows[1].startswith("2,1,")

    def test_mase_sweep_prefers_tau_one(self, henon_file, tmp_path, capsys):
        out = tmp_path / "mase.csv"
        best = tmp_path / "best.json"
        code, _, _ = run_cli(capsys, "sweep", "--mode", "mase",
                             "--m", "2", "--tau", "1:3",
                             "-i", str(henon_file), "-o", str(out),
                             "--argmax-json", str(best))
        assert code == 0
        assert json.loads(best.read_text())["tau"] == 1

    def test_parallel_jobs_give_same_grid(self, henon_file, tmp_path, capsys):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        for path, jobs in ((serial, "1"), (parallel, "2")):
            code, _, _ = run_cli(capsys, "sweep", "--mode", "mase",
                                 "--m", "1:2", "--tau", "1:2", "--jobs", jobs,
                                 "-i", str(henon_file), "-o", str(path))
            assert code == 0
        assert data_lines(serial) == data_lines(parallel)

    def test_mase_error_cells_match_across_jobs(self, henon_file, tmp_path, capsys):
        # a Theiler window this wide leaves m=2 cells no admissible analogue
        grids = []
        for jobs in ("1", "2"):
            out = tmp_path / f"mase{jobs}.csv"
            code, _, _ = run_cli(capsys, "sweep", "--mode", "mase",
                                 "--m", "1:2", "--tau", "1:2", "--theiler", "2248",
                                 "--jobs", jobs, "-i", str(henon_file), "-o", str(out))
            assert code == 0
            grids.append(data_lines(out))
        assert grids[0] == grids[1]
        assert [row.endswith(",") for row in grids[0][1:]] == [False, False, True, True]

    def test_failed_cells_named_on_stderr(self, tmp_path, capsys):
        series = tmp_path / "henon300.txt"
        code, _, _ = run_cli(capsys, "generate", "--system", "henon", "--n", "300",
                             "--seed", "3", "-o", str(series))
        assert code == 0
        out = tmp_path / "grid.csv"
        argv = ["sweep", "--mode", "atau", "--m", "7:8", "--tau", "42:45",
                "-i", str(series), "-o", str(out)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ("warning: 3 of 8 cells failed; first at m=8 tau=43: series "
                       "too short: need at least 304 samples, got 300\n")
        assert [row.endswith(",") for row in data_lines(out)[1:]] == [False] * 5 + [True] * 3
        # every cell failing is an error that carries the first cell's reason
        out.unlink()
        code, _, err = run_cli(capsys, *argv, "--k", "5000")
        assert code == 1
        assert err == ("error: every cell of the grid failed; first at m=7 tau=42: "
                       "require 1 <= k < N\n")
        assert not out.exists()

    def test_bad_range_rejected(self, henon_file, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--mode", "atau",
                             "--m", "3:1", "--tau", "1",
                             "-i", str(henon_file), "-o", str(tmp_path / "g.csv"))
        assert code == 1


class TestSelectParams:
    def test_atau_optimal_json(self, henon_file, capsys):
        code, out, _ = run_cli(capsys, "select-params", "--method",
                               "atau_optimal", "-i", str(henon_file),
                               "--m-range", "1:3", "--tau-range", "1:3")
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert (payload["m"], payload["tau"]) == (2, 1)
        assert payload["method"] == "atau_optimal"

    @pytest.mark.parametrize("flags,reason", [
        (["--k", "0"], "k must be an integer >= 1, got 0"),
        (["--h", "0"], "h must be an integer >= 1, got 0"),
        (["--k", "600"], "every cell of the grid failed; first at m=1 tau=1: "
                         "require 1 <= k < N"),
    ], ids=["k_zero", "h_zero", "k_beyond_series"])
    def test_atau_grid_failure_named(self, tmp_path, capsys, flags, reason):
        # sweep and both select-params paths report a failed grid alike
        series = tmp_path / "henon500.txt"
        code, _, _ = run_cli(capsys, "generate", "--system", "henon", "--n", "500",
                             "--seed", "3", "-o", str(series))
        assert code == 0
        out = tmp_path / "grid.csv"
        for argv in (["select-params", "--method", "atau_optimal",
                      "--m-range", "1:2", "--tau-range", "1:2"],
                     ["select-params", "--method", "atau_optimal",
                      "--m-range", "1:2", "--tau-range", "1:2", "--curve-csv", str(out)],
                     ["sweep", "--mode", "atau", "--m", "1:2", "--tau", "1:2",
                      "-o", str(out)]):
            code, stdout, err = run_cli(capsys, *argv, *flags, "-i", str(series))
            assert (code, stdout, err) == (1, "", f"error: {reason}\n")
            assert not out.exists()

    def test_fnn_requires_tau(self, henon_file, capsys):
        code, _, _ = run_cli(capsys, "select-params", "--method", "fnn",
                             "-i", str(henon_file))
        assert code == 1

    def test_no_zero_crossing_is_computation_error(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = np.zeros(5000)
        for i in range(1, 5000):
            x[i] = 0.8 * x[i - 1] + rng.standard_normal()
        p = tmp_path / "ar.txt"
        dk.save_series(dk.ScalarSeries(x), p)
        code, _, err = run_cli(capsys, "select-params", "--method",
                               "first_zero_autocorr", "-i", str(p),
                               "--tau-max", "10")
        assert code == 2

    def test_curve_csv_written(self, henon_file, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, "select-params", "--method",
                               "first_min_mi", "-i", str(henon_file),
                               "--tau-max", "20", "--curve-csv", str(curve))
        assert code == 0
        rows = data_lines(curve)
        assert rows[0] == "tau,mi_bits"
        assert len(rows) == 21

    def test_curves_built_only_for_curve_csv(self, henon_file, tmp_path, capsys,
                                             monkeypatch):
        calls = []
        for name in ("fnn_fraction", "td_mutual_information_curve", "_autocorrelation_at"):
            def counting(*args, _original=getattr(cli, name), **kwargs):
                calls.append(_original.__name__)
                return _original(*args, **kwargs)
            monkeypatch.setattr(cli, name, counting)
        series = dk.load_series(henon_file)
        fnn = dk.FnnConfig()
        cases = {
            "first_min_mi": (["--tau-max", "20"], ["tau,mi_bits"] + [
                f"{t},{max(0.0, v)!r}"
                for t, v in dk.td_mutual_information_curve(series, 20)]),
            "first_zero_autocorr": (["--tau-max", "5"], ["tau,autocorrelation"] + [
                f"{t},{dk.autocorrelation(series, t)!r}" for t in range(6)]),
            "fnn": (["--tau", "1"], ["m,fnn_fraction"] + [
                f"{m},{dk.fnn_fraction(series, m, 1, fnn)!r}"
                for m in range(1, dk.estimate_m_fnn(series, 1, fnn).m + 1)]),
        }
        for method, (flags, rows) in cases.items():
            argv = ["select-params", "--method", method, "-i", str(henon_file), *flags]
            code, bare, _ = run_cli(capsys, *argv)
            assert code == 0
            assert calls == []
            curve = tmp_path / f"{method}.csv"
            code, out, _ = run_cli(capsys, *argv, "--curve-csv", str(curve))
            assert code == 0
            assert out == bare
            assert calls
            assert data_lines(curve) == rows
            calls.clear()

    def test_atau_curve_csv_runs_one_sweep(self, henon_file, tmp_path, capsys,
                                           monkeypatch):
        runs = []
        run_grid = estimators.run_grid

        def counting(*args, **kwargs):
            runs.append(args[2:4])
            return run_grid(*args, **kwargs)

        monkeypatch.setattr(estimators, "run_grid", counting)
        argv = ["select-params", "--method", "atau_optimal", "-i", str(henon_file),
                "--m-range", "1:3", "--tau-range", "1:2", "--max-samples", "1000"]
        code, bare, _ = run_cli(capsys, *argv)
        assert code == 0
        assert runs == [([1, 2, 3], [1, 2])]
        curve = tmp_path / "grid.csv"
        code, out, _ = run_cli(capsys, *argv, "--curve-csv", str(curve))
        assert code == 0
        assert runs == [([1, 2, 3], [1, 2])] * 2
        assert out == bare
        grid = dk.atau_surface(dk.load_series(henon_file), [1, 2, 3], [1, 2],
                               max_samples=1000)
        assert data_lines(curve) == list(grid.to_csv_rows())

    def test_atau_ranges_checked_before_config_dump(self, henon_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        code, _, err = run_cli(capsys, "select-params", "--method", "atau_optimal",
                               "-i", str(henon_file), "--m-range", "3:1",
                               "--dump-config", str(cfg))
        assert code == 1
        assert "3:1" in err
        assert not cfg.exists()
        # other methods do not read the ranges
        code, _, _ = run_cli(capsys, "select-params", "--method", "fnn", "--tau", "1",
                             "-i", str(henon_file), "--m-range", "3:1")
        assert code == 0

    def test_atau_records_max_samples_and_jobs(self, henon_file, tmp_path, capsys):
        cfg, curve = tmp_path / "cfg.txt", tmp_path / "grid.csv"
        code, _, _ = run_cli(capsys, "select-params", "--method", "atau_optimal",
                             "-i", str(henon_file), "--m-range", "1:2",
                             "--tau-range", "1:2", "--max-samples", "1000",
                             "--jobs", "2", "--dump-config", str(cfg),
                             "--curve-csv", str(curve))
        assert code == 0
        entries = dict(ln.split("=", 1) for ln in cfg.read_text().splitlines())
        assert (entries["max_samples"], entries["jobs"]) == ("1000", "2")
        header = [ln for ln in curve.read_text().splitlines() if ln.startswith("#")]
        assert {"# max_samples=1000", "# jobs=2"} <= set(header)


class TestForecast:
    def test_lma_summary_fields(self, henon_file, capsys, tmp_path):
        csv = tmp_path / "run.csv"
        code, out, _ = run_cli(capsys, "forecast", "--method", "lma",
                               "--m", "2", "--tau", "1", "--h", "1",
                               "--split", "0.9", "-i", str(henon_file),
                               "--csv", str(csv))
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["method"] == "lma"
        assert payload["h"] == 1
        assert payload["n_train"] == 2250
        assert payload["n_test"] == 250
        assert payload["h_mase"] < 0.1
        rows = data_lines(csv)
        assert rows[0] == "index,prediction,truth"
        assert len(rows) == 251

    def test_no_admissible_analogue_is_computation_error(self, henon_file, capsys):
        # a Theiler window as long as the training prefix excludes every vector
        code, out, err = run_cli(capsys, "forecast", "--method", "lma",
                                 "--m", "2", "--tau", "1", "--theiler", "2250",
                                 "--split", "0.9", "-i", str(henon_file))
        assert code == 2
        assert out == ""
        assert err == ("error: no admissible analogue at step 1 "
                       "(theiler=2250, 2249 reconstruction points)\n")

    def test_random_walk_band_on_stationary_series(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        x = np.zeros(4000)
        for i in range(1, 4000):
            x[i] = 0.5 * x[i - 1] + rng.standard_normal()
        p = tmp_path / "ar.txt"
        dk.save_series(dk.ScalarSeries(x), p)
        code, out, _ = run_cli(capsys, "forecast", "--method", "random_walk",
                               "-i", str(p))
        payload = json.loads(out.strip().splitlines()[-1])
        assert 0.85 <= payload["h_mase"] <= 1.15

    def test_lma_needs_m_and_tau(self, henon_file, capsys):
        code, _, _ = run_cli(capsys, "forecast", "--method", "lma",
                             "-i", str(henon_file))
        assert code == 1


class TestWpe:
    def test_noise_near_one(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        p = tmp_path / "noise.txt"
        dk.save_series(dk.ScalarSeries(rng.uniform(size=100000)), p)
        code, out, _ = run_cli(capsys, "wpe", "-i", str(p), "--ell", "4")
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["wpe"] >= 0.99
        assert payload["ell"] == 4

    def test_ramp_is_zero(self, tmp_path, capsys):
        p = tmp_path / "ramp.txt"
        dk.save_series(dk.ScalarSeries(np.linspace(0, 1, 2000)), p)
        code, out, _ = run_cli(capsys, "wpe", "-i", str(p))
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["wpe"] == 0.0
        assert payload["pe"] == 0.0

    def test_sine_low_wpe_at_ell6(self, tmp_path, capsys):
        t = np.arange(100000)
        p = tmp_path / "sine.txt"
        dk.save_series(dk.ScalarSeries(np.sin(2 * np.pi * t / 1000.0)), p)
        code, out, _ = run_cli(capsys, "wpe", "-i", str(p), "--ell", "6")
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["wpe"] <= 0.35

    def test_auto_word_length(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        p = tmp_path / "n.txt"
        dk.save_series(dk.ScalarSeries(rng.uniform(size=100000)), p)
        code, out, _ = run_cli(capsys, "wpe", "-i", str(p))
        assert json.loads(out.strip().splitlines()[-1])["ell"] == 6


class TestTopology:
    @pytest.fixture()
    def lorenz_cloud_file(self, tmp_path, lorenz63_traj_20k):
        p = tmp_path / "cloud.csv"
        sub = lorenz63_traj_20k[:6000]
        with open(p, "w") as fh:
            fh.write("# lorenz63 trajectory sample\n")
            for row in sub:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        return p

    def test_betti_mode(self, lorenz_cloud_file, capsys):
        code, out, _ = run_cli(capsys, "topology", "--mode", "betti",
                               "--cloud", str(lorenz_cloud_file),
                               "--ell", "100", "--xi", "0.01")
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["beta0"] == 1
        assert payload["beta1"] == 2

    def test_barcode_mode_has_two_hole_band(self, lorenz_cloud_file,
                                            tmp_path, capsys):
        out = tmp_path / "bc.csv"
        code, _, _ = run_cli(capsys, "topology", "--mode", "barcode",
                             "--cloud", str(lorenz_cloud_file),
                             "--ell", "100", "--xi-grid", "12",
                             "--xi-min", "0.001", "--xi-max", "0.05",
                             "-o", str(out))
        assert code == 0
        rows = data_lines(out)
        assert rows[0] == "dim,birth,death"
        intervals = [r.split(",") for r in rows[1:]]
        dim1 = [(float(b), float("inf") if d == "inf" else float(d))
                for dim, b, d in intervals if dim == "1"]
        # at some scale exactly two dim-1 intervals are alive
        points = sorted({b for b, _ in dim1}
                        | {d for _, d in dim1 if d != float("inf")})
        scan = points + [(a + b) / 2 for a, b in zip(points, points[1:])]
        alive = [sum(1 for b, d in dim1 if b <= s < d) for s in scan]
        assert 2 in alive

    def test_barcode_mode_scans_the_cloud_once(self, lorenz_cloud_file, tmp_path,
                                               capsys, monkeypatch):
        calls = []

        def counting(xi, cloud):
            calls.append(xi)
            return dk.scaled_epsilon(xi, cloud)

        monkeypatch.setattr(cli, "scaled_epsilon", counting)
        code, _, _ = run_cli(capsys, "topology", "--mode", "barcode",
                             "--cloud", str(lorenz_cloud_file), "--ell", "20",
                             "--xi-grid", "30", "-o", str(tmp_path / "bc.csv"))
        assert code == 0
        assert calls == [1.0]

    def test_lifespan_mode(self, tmp_path, capsys, lorenz63_20k):
        series_path = tmp_path / "x.txt"
        dk.save_series(dk.ScalarSeries(lorenz63_20k.values[:4000]), series_path)
        out = tmp_path / "life.csv"
        code, _, _ = run_cli(capsys, "topology", "--mode", "lifespan",
                             "--series", str(series_path), "--m-range", "1:4",
                             "--tau", "3", "--xi", "0.008", "--ell", "50",
                             "-o", str(out))
        assert code == 0
        rows = data_lines(out)
        assert rows[0] == "i,j,delta_m"
        assert len(rows) == 1 + 50 * 49 // 2
        spans = [int(r.split(",")[2]) for r in rows[1:]]
        assert max(spans) <= 4

    def test_barcode_of_a_zero_diameter_cloud_names_the_diameter(self, tmp_path,
                                                                 capsys):
        cloud, out = tmp_path / "same.csv", tmp_path / "bc.csv"
        cloud.write_text("0.5,-2\n" * 50)
        code, _, err = run_cli(capsys, "topology", "--mode", "barcode",
                               "--cloud", str(cloud), "--ell", "5", "-o", str(out))
        assert code == 1
        assert err.startswith("error: the cloud has zero diameter")
        assert err.count("\n") == 1
        assert not out.exists()
        # a grid of one scale is the complex at 0
        code, _, _ = run_cli(capsys, "topology", "--mode", "barcode",
                             "--cloud", str(cloud), "--ell", "5", "--xi-grid", "1",
                             "-o", str(out))
        assert code == 0
        assert data_lines(out) == ["dim,birth,death", "0,0.0,inf"]

    def test_cloud_and_series_mutually_exclusive(self, lorenz_cloud_file,
                                                 tmp_path, capsys):
        code, _, _ = run_cli(capsys, "topology", "--mode", "betti",
                             "--cloud", str(lorenz_cloud_file),
                             "--series", str(lorenz_cloud_file),
                             "--xi", "0.01")
        assert code == 1


# One small run of each file-writing command, every file it writes (the
# --dump-config file included) and its stdout hashed together. Inputs are
# a Henon series and, for the mutual-information minimum, a Lorenz 63 one. Paths are
# relative to the run directory, so the headers that record them are the
# same on every machine.
PINNED = {
    "generate": (["generate", "--system", "logistic", "--n", "50", "--seed", "2",
                  "-o", "gen.txt"],
                 "0832db14dc6a013cd1e594aba14d6aa507d2debcec4be62e2f9f1144dc12a6c0"),
    "sweep_atau": (["sweep", "--mode", "atau", "--m", "1:2", "--tau", "1:2",
                    "--max-samples", "300", "--jobs", "2", "-i", "henon.txt",
                    "-o", "grid.csv", "--argmax-json", "best.json"],
                   "6a165da05c893a4404ac89d3cbbbf716f130d6c05dd61b10103ec825da93f4d3"),
    "sweep_mase": (["sweep", "--mode", "mase", "--m", "1:2", "--tau", "1:2",
                    "--theiler", "2", "-i", "henon.txt", "-o", "grid.csv",
                    "--argmax-json", "best.json"],
                   "3c4e2e03662cac85d974c93f1ff4ac8b6efc19ab39222bc5eb5ff8c82e54adf1"),
    "select_first_min_mi": (["select-params", "--method", "first_min_mi",
                             "--tau-max", "8", "-i", "flow.txt",
                             "--curve-csv", "curve.csv"],
                            "d4bdaabe67e827200ea04d1cfda943c308e0057ea6de796c4f2fd4e13be17b7b"),
    "select_first_zero_autocorr": (["select-params", "--method",
                                    "first_zero_autocorr", "--tau-max", "8",
                                    "-i", "henon.txt", "--curve-csv", "curve.csv"],
                                   "42e48946294aa8587196e06840d69730bf94cbc5519bab1bbd5bcbbd47481412"),
    "select_fnn": (["select-params", "--method", "fnn", "--tau", "1",
                    "--m-max", "4", "-i", "henon.txt", "--curve-csv", "curve.csv"],
                   "b61e320baa22731652837a6f8175374a029227964400292e1eab74b281aa46c6"),
    "select_atau_optimal": (["select-params", "--method", "atau_optimal",
                             "--m-range", "1:2", "--tau-range", "1:2",
                             "--max-samples", "300", "-i", "henon.txt",
                             "--curve-csv", "curve.csv"],
                            "01cde4c0fee3bcef5d87f659bc3f1097b91f1c15692a3cc23a0a1fc2023b3a6c"),
    "forecast_lma": (["forecast", "--method", "lma", "--m", "2", "--tau", "1",
                      "--h", "2", "--split", "0.8", "-i", "henon.txt",
                      "--csv", "run.csv", "--json", "run.json"],
                     "d6cafc40fc8aa5481760310ea0d6634dfb2bc493fa4d1a54b381949143027e76"),
    "forecast_random_walk": (["forecast", "--method", "random_walk",
                              "-i", "henon.txt", "--csv", "run.csv",
                              "--json", "run.json"],
                             "e4a517dcd347e89b6e4e665685825f4c245a59dc297be4feed1f7309e8392691"),
    "wpe": (["wpe", "--ell", "3", "-i", "henon.txt"],
            "1475971e863a123499ec5ceb9a8be078ddfaa978959fef6e494c24b23965fcb9"),
    "topology_barcode": (["topology", "--mode", "barcode", "--series", "henon.txt",
                          "--m", "2", "--tau", "1", "--ell", "20", "--xi-grid", "6",
                          "--xi-min", "0.01", "--xi-max", "0.2", "-o", "bars.csv"],
                         "c0beb55e581230f1f93aa86b534f5c612493977afd5a74ad569d19dc2e5e77f7"),
    "topology_lifespan": (["topology", "--mode", "lifespan", "--series", "henon.txt",
                           "--m-range", "1:3", "--tau", "1", "--xi", "0.05",
                           "--ell", "12", "-o", "spans.csv"],
                          "a60469e649b8ee9aa2e7067ff867396ead781e719d43dd3678e028ad501eba45"),
}


@pytest.mark.parametrize("name", PINNED)
def test_output_files_are_pinned(tmp_path, capsys, monkeypatch, name):
    # Recorded before the CLI was reorganised around shared flag groups and
    # one run-record writer: any change to a file body, a # header, a
    # --dump-config file or a stdout line fails here.
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "generate", "--system", "henon", "--n", "400",
                           "--transient", "100", "--seed", "3", "-o", "henon.txt")
    assert code == 0, err
    code, _, err = run_cli(capsys, "generate", "--system", "lorenz63", "--dt", "0.0625",
                           "--steps", "700", "--transient", "100", "--seed", "1",
                           "-o", "flow.txt")
    assert code == 0, err
    argv, digest = PINNED[name]
    code, out, err = run_cli(capsys, *argv, "--dump-config", "config.txt")
    assert code == 0, err
    h = hashlib.sha256(out.encode())
    for path in sorted(tmp_path.iterdir()):
        if path.name not in ("henon.txt", "flow.txt"):
            h.update(f"\0{path.name}\0".encode() + path.read_bytes())
    assert h.hexdigest() == digest


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1


@pytest.fixture()
def small_files(tmp_path):
    rng = np.random.default_rng(11)
    x = np.sin(0.3 * np.arange(300)) + 0.1 * rng.standard_normal(300)
    series = tmp_path / "s.txt"
    dk.save_series(dk.ScalarSeries(x), series)
    cloud = tmp_path / "c.csv"
    cloud.write_text("0,0\n1,0\nnan,1\n0,1\n")
    dup = tmp_path / "dup.csv"
    dup.write_text("0,0\n1,1\n0,0\n1,1\n")
    long = tmp_path / "long.txt"
    t = np.arange(5000)
    dk.save_series(dk.ScalarSeries(np.sin(0.05 * t) + 0.1 * np.cos(0.31 * t)), long)
    return {"series": str(series), "cloud": str(cloud), "dup": str(dup),
            "long": str(long), "out": str(tmp_path / "out.txt")}


MISUSE = {
    "range_token": ["sweep", "--mode", "atau", "--m", "1:x", "--tau", "1",
                    "-i", "{series}", "-o", "{out}"],
    "ell_token": ["wpe", "--ell", "x", "-i", "{series}"],
    "x0_token": ["generate", "--system", "henon", "--x0", "a,b", "-o", "{out}"],
    "generate_map_flow_flags": ["generate", "--system", "henon", "--n", "20",
                                "--seed", "1", "--observed-index", "5", "--dt", "-3",
                                "-o", "{out}"],
    "generate_flow_map_flags": ["generate", "--system", "lorenz63", "--steps", "20",
                                "--n", "5", "--r", "2.0", "--K", "9", "--seed", "1",
                                "-o", "{out}"],
    "generate_flow_n": ["generate", "--system", "lorenz96", "--steps", "20",
                        "--n", "5", "--seed", "1", "-o", "{out}"],
    "generate_map_steps": ["generate", "--system", "logistic", "--steps", "20",
                           "--seed", "1", "-o", "{out}"],
    "generate_other_flow_param": ["generate", "--system", "rossler", "--steps", "20",
                                  "--sigma", "3", "--seed", "1", "-o", "{out}"],
    "generate_other_map_param": ["generate", "--system", "henon", "--n", "20",
                                 "--c", "3", "--seed", "1", "-o", "{out}"],
    "generate_dt_inf": ["generate", "--system", "lorenz63", "--dt", "inf",
                        "--steps", "10", "--seed", "1", "-o", "{out}"],
    "generate_map_param_inf": ["generate", "--system", "henon", "--a", "inf",
                               "--n", "10", "--seed", "1", "-o", "{out}"],
    "generate_flow_param_nan": ["generate", "--system", "lorenz63", "--sigma", "nan",
                                "--steps", "10", "--seed", "1", "-o", "{out}"],
    "generate_forcing_inf": ["generate", "--system", "lorenz96", "--F", "inf",
                             "--steps", "10", "--seed", "1", "-o", "{out}"],
    "generate_seed_negative": ["generate", "--system", "lorenz63", "--seed", "-1",
                               "--steps", "10", "-o", "{out}"],
    "sweep_max_samples_zero": ["sweep", "--mode", "atau", "--m", "1:2", "--tau", "1",
                               "--max-samples", "0", "-i", "{series}", "-o", "{out}"],
    "sweep_max_samples_negative": ["sweep", "--mode", "atau", "--m", "1:2",
                                   "--tau", "1", "--max-samples", "-5",
                                   "-i", "{series}", "-o", "{out}"],
    "select_max_samples_zero": ["select-params", "--method", "atau_optimal",
                                "--max-samples", "0", "-i", "{series}"],
    "select_autocorr_tau_max_at_length": ["select-params", "--method",
                                          "first_zero_autocorr", "--tau-max", "300",
                                          "--curve-csv", "{out}", "-i", "{series}"],
    "sweep_every_cell_fails": ["sweep", "--mode", "atau", "--m", "1:2", "--tau", "1",
                               "--k", "5000", "-i", "{series}", "-o", "{out}"],
    "select_jobs_zero": ["select-params", "--method", "atau_optimal",
                         "--jobs", "0", "-i", "{series}"],
    "forecast_h_zero": ["forecast", "--method", "naive", "--h", "0", "-i", "{series}"],
    "forecast_lma_m_zero": ["forecast", "--method", "lma", "--m", "0", "--tau", "1",
                            "-i", "{series}"],
    "topology_series_m_zero": ["topology", "--mode", "betti", "--series", "{series}",
                               "--m", "0", "--tau", "1", "--xi", "0.01", "--ell", "5"],
    "topology_series_tau_zero": ["topology", "--mode", "betti", "--series", "{series}",
                                 "--m", "2", "--tau", "0", "--xi", "0.01", "--ell", "5"],
    "lifespan_landmarks": ["topology", "--mode", "lifespan", "--series", "{series}",
                           "--m-range", "1:2", "--tau", "1", "--xi", "0.01",
                           "--ell", "5", "--landmarks", "max_min", "-o", "{out}"],
    "lifespan_seed": ["topology", "--mode", "lifespan", "--series", "{series}",
                      "--m-range", "1:2", "--tau", "1", "--xi", "0.01",
                      "--ell", "5", "--seed", "3", "-o", "{out}"],
    "random_landmarks_seed_negative": ["topology", "--mode", "betti",
                                       "--series", "{series}", "--m", "2",
                                       "--tau", "1", "--xi", "0.01", "--ell", "5",
                                       "--landmarks", "random", "--seed", "-3"],
    "cloud_nan_row": ["topology", "--mode", "betti", "--cloud", "{cloud}",
                      "--xi", "0.01", "--ell", "2"],
    "max_min_too_few_distinct_points": ["topology", "--mode", "barcode",
                                        "--cloud", "{dup}", "--ell", "3",
                                        "--landmarks", "max_min", "-o", "{out}"],
    "lifespan_ell_zero": ["topology", "--mode", "lifespan", "--series", "{series}",
                          "--m-range", "1:2", "--tau", "1", "--xi", "0.01",
                          "--ell", "0", "-o", "{out}"],
    "ar_order_negative": ["forecast", "--method", "ar", "--order", "-1",
                          "-i", "{series}"],
    "ar_refit_every_zero": ["forecast", "--method", "ar", "--split", "0.7",
                            "--refit-every", "0", "-i", "{long}"],
    "ar_order_zero": ["forecast", "--method", "ar", "--split", "0.7",
                      "--order", "0", "-i", "{long}"],
    "ar_order_beyond_train": ["forecast", "--method", "ar", "--split", "0.7",
                              "--order", "4000", "-i", "{long}"],
    "ar_order_no_refit_fits": ["forecast", "--method", "ar", "--order", "200",
                               "-i", "{series}"],
    "ar_split_below_order": ["forecast", "--method", "ar", "--split", "0.001",
                             "-i", "{long}"],
    "word_length_overflow": ["wpe", "--ell", "16", "-i", "{series}"],
    "betti_xi_nan": ["topology", "--mode", "betti", "--series", "{series}",
                     "--m", "2", "--tau", "1", "--xi", "nan", "--ell", "5"],
    "betti_xi_inf": ["topology", "--mode", "betti", "--series", "{series}",
                     "--m", "2", "--tau", "1", "--xi", "inf", "--ell", "5"],
    "barcode_xi_max_inf": ["topology", "--mode", "barcode", "--series", "{series}",
                           "--m", "2", "--tau", "1", "--ell", "5",
                           "--xi-max", "inf", "-o", "{out}"],
}


# outside pytest a warning would print a second line on stderr
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", MISUSE.values(), ids=MISUSE.keys())
def test_misuse_exits_one_with_one_line_message(small_files, capsys, argv):
    code, _, err = run_cli(capsys, *[arg.format(**small_files) for arg in argv])
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
