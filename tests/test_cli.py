import json

import numpy as np
import pytest

import delaykit as dk
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

    def test_cloud_and_series_mutually_exclusive(self, lorenz_cloud_file,
                                                 tmp_path, capsys):
        code, _, _ = run_cli(capsys, "topology", "--mode", "betti",
                             "--cloud", str(lorenz_cloud_file),
                             "--series", str(lorenz_cloud_file),
                             "--xi", "0.01")
        assert code == 1


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
    return {"series": str(series), "cloud": str(cloud),
            "out": str(tmp_path / "out.txt")}


MISUSE = {
    "range_token": ["sweep", "--mode", "atau", "--m", "1:x", "--tau", "1",
                    "-i", "{series}", "-o", "{out}"],
    "ell_token": ["wpe", "--ell", "x", "-i", "{series}"],
    "x0_token": ["generate", "--system", "henon", "--x0", "a,b", "-o", "{out}"],
    "sweep_max_samples_zero": ["sweep", "--mode", "atau", "--m", "1:2", "--tau", "1",
                               "--max-samples", "0", "-i", "{series}", "-o", "{out}"],
    "sweep_max_samples_negative": ["sweep", "--mode", "atau", "--m", "1:2",
                                   "--tau", "1", "--max-samples", "-5",
                                   "-i", "{series}", "-o", "{out}"],
    "select_max_samples_zero": ["select-params", "--method", "atau_optimal",
                                "--max-samples", "0", "-i", "{series}"],
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
    "cloud_nan_row": ["topology", "--mode", "betti", "--cloud", "{cloud}",
                      "--xi", "0.01", "--ell", "2"],
    "lifespan_ell_zero": ["topology", "--mode", "lifespan", "--series", "{series}",
                          "--m-range", "1:2", "--tau", "1", "--xi", "0.01",
                          "--ell", "0", "-o", "{out}"],
    "ar_order_negative": ["forecast", "--method", "ar", "--order", "-1",
                          "-i", "{series}"],
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
