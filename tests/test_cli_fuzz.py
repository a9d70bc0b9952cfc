"""Argv fuzzing: whatever flags and values the six subcommands receive,
the CLI exits 0, 1 or 2 and never lets an exception escape.

Each example starts from a valid invocation (one per mode or method),
overrides up to three flags with tokens that may be out of range or
malformed, and may drop one flag other than a size, so most runs get past
argument parsing and into the code that validates and computes.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import delaykit as dk
from delaykit.cli import main

# Sizes stay small so each run takes milliseconds.
COUNT = ["-1", "0", "1", "2", "3", "5", "12", "1.5"]
REAL = ["-1", "0", "1e-4", "0.01", "0.5", "0.9", "3.9", "28", "nan", "inf", "-inf", "x"]
RANGE = ["1", "2", "1:3", "2:4", "3:1", "0:2", "-1:1", "1:x", "x", ":", "1:2:3", ""]
JOBS = ["-1", "0", "1", "2", "x"]
# never dropped: their defaults (10,000 steps, 100 lags, 100 scales) are slow
SIZES = {"--steps", "--n", "--tau-max", "--xi-grid"}
COMMANDS = ["generate", "sweep", "select-params", "forecast", "wpe", "topology"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    dk.save_series(dk.ScalarSeries(np.sin(0.5 * np.arange(60))
                                   + 0.1 * rng.standard_normal(60)),
                   d / "series.txt")
    np.savetxt(d / "cloud.csv", rng.standard_normal((40, 2)), delimiter=",")
    texts = {
        "constant.txt": "1.0\n" * 30,
        "short.txt": "0.5\n",
        "ragged.csv": "1,2\n3\n",
        "nan.txt": "1\nnan\n2\n",
        "words.txt": "abc\n",
        "empty.txt": "# nothing\n",
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    (d / "binary.txt").write_bytes(b"\xff\xfe\x00\x01")
    paths = {name: str(d / name) for name in
             ["series.txt", "cloud.csv", "binary.txt", "missing.txt", *texts]}
    paths.update(dir=str(d), out=str(d / "out.txt"),
                 nowhere=str(d / "no-dir" / "out.txt"))
    return paths


def flags(files):
    """Per subcommand, the value-taking flags and the tokens to try."""
    inputs = [v for k, v in files.items() if k not in ("out", "nowhere")]
    outputs = [files["out"], files["nowhere"], files["dir"]]
    common = {"--dump-config": outputs}
    return {
        "generate": {
            "--system": ["lorenz63", "lorenz96", "rossler", "henon", "logistic",
                         "duffing"],
            "--steps": COUNT, "--n": COUNT, "--transient": COUNT, "--dt": REAL,
            "--observed-index": COUNT, "--K": COUNT, "--seed": COUNT,
            "--x0": ["0.5", "0.1,0.2", "1,1,1", "a,b", "", ",", "nan,0", "5"],
            "-o": outputs, **{f"--{p}": REAL for p in
                              ("sigma", "rho", "beta", "F", "a", "b", "c", "r")},
            **common,
        },
        "sweep": {
            "--mode": ["atau", "mase", "bogus"], "-i": inputs, "--m": RANGE,
            "--tau": RANGE, "--h": COUNT, "--k": COUNT, "--max-samples": COUNT,
            "--split": REAL, "--theiler": COUNT, "--jobs": JOBS, "-o": outputs,
            "--argmax-json": outputs, **common,
        },
        "select-params": {
            "--method": ["first_min_mi", "first_zero_autocorr", "fnn",
                         "atau_optimal", "bogus"],
            "-i": inputs, "--tau-max": COUNT, "--tau": COUNT, "--m-max": COUNT,
            "--r-tol": REAL, "--a-tol": REAL, "--threshold": REAL,
            "--m-range": RANGE, "--tau-range": RANGE, "--h": COUNT, "--k": COUNT,
            "--max-samples": COUNT, "--jobs": JOBS, "--curve-csv": outputs,
            **common,
        },
        "forecast": {
            "--method": ["random_walk", "naive", "lma", "ar", "bogus"],
            "-i": inputs, "--split": REAL, "--h": COUNT, "--m": COUNT,
            "--tau": COUNT, "--theiler": COUNT, "--order": COUNT,
            "--refit-every": COUNT, "--json": outputs, "--csv": outputs, **common,
        },
        "wpe": {
            "-i": inputs,
            "--ell": ["auto", "1", "2", "3", "9", "15", "16", "40", "0", "-2", "x"],
            **common,
        },
        "topology": {
            "--mode": ["barcode", "betti", "lifespan", "bogus"], "--cloud": inputs,
            "--series": inputs, "--m": COUNT, "--m-range": RANGE, "--tau": COUNT,
            "--ell": COUNT, "--landmarks": ["equally_spaced", "max_min", "random",
                                            "bogus"],
            "--seed": COUNT, "--xi": REAL, "--xi-grid": COUNT, "--xi-min": REAL,
            "--xi-max": REAL, "-o": outputs, **common,
        },
    }


def bases(files):
    """Valid invocations, one per mode or method, as flag -> value maps."""
    series, cloud, out = files["series.txt"], files["cloud.csv"], files["out"]
    return {
        "generate": [{"--system": system, "--steps": "30", "--seed": "1", "-o": out}
                     for system in ("lorenz63", "lorenz96", "rossler")]
        + [{"--system": system, "--n": "30", "--seed": "1", "-o": out}
           for system in ("henon", "logistic")],
        "sweep": [{"--mode": mode, "-i": series, "--m": "1:2", "--tau": "1:2",
                   "-o": out} for mode in ("atau", "mase")],
        "select-params": [
            {"--method": "first_min_mi", "-i": series, "--tau-max": "12"},
            {"--method": "first_zero_autocorr", "-i": series, "--tau-max": "12"},
            {"--method": "fnn", "-i": series, "--tau": "2"},
            {"--method": "atau_optimal", "-i": series, "--m-range": "1:2",
             "--tau-range": "1:2"},
        ],
        "forecast": [{"--method": "random_walk", "-i": series},
                     {"--method": "naive", "-i": series},
                     {"--method": "lma", "-i": series, "--m": "2", "--tau": "1"},
                     {"--method": "ar", "-i": series, "--order": "2"}],
        "wpe": [{"-i": series}],
        "topology": [
            {"--mode": "betti", "--cloud": cloud, "--ell": "8", "--xi": "0.1"},
            {"--mode": "barcode", "--series": series, "--m": "2", "--tau": "1",
             "--ell": "8", "--xi-grid": "5", "-o": out},
            {"--mode": "lifespan", "--series": series, "--m-range": "1:3",
             "--tau": "1", "--ell": "8", "--xi": "0.1", "-o": out},
        ],
    }


@st.composite
def argvs(draw, command, bases, flags):
    chosen = dict(draw(st.sampled_from(bases)))
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3,
                              unique=True)):
        chosen[flag] = draw(st.sampled_from(flags[flag]))
    for flag in draw(st.lists(st.sampled_from(sorted(set(chosen) - SIZES)),
                              max_size=1)):
        del chosen[flag]
    argv = [command]
    for flag in draw(st.permutations(sorted(chosen))):
        argv += [flag, chosen[flag]]
    extra = draw(st.sampled_from([[]] * 16 + [["--unnormalized"], ["--help"],
                                              ["--bogus"], ["stray"]]))
    return argv + extra


@pytest.mark.parametrize("command", COMMANDS)
def test_any_argv_exits_cleanly(files, command):
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argvs(command, bases(files)[command], flags(files)[command]))
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv

    run()


def test_every_base_is_valid(files):
    for command, invocations in bases(files).items():
        for base in invocations:
            argv = [command] + [token for pair in base.items() for token in pair]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code == 0, (argv, err.getvalue())
