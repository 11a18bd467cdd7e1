"""Command-line surface: grids, CSV shapes, exit codes, config files,
manifests, and byte-identical reruns."""

import json
import os
import random
import subprocess
import sys
import time
import warnings

import pytest

import maintsim
from maintsim.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main, parse_grid
from maintsim.errors import ParameterError
from maintsim.mobility import _MAX_WINDOW_LEGS
from maintsim.montecarlo import Estimate
from maintsim.output import read_csv, read_manifest
from test_montecarlo import zero_standard_error_rows


def run(argv):
    return main(argv)


class TestParseGrid:
    def test_range(self):
        assert parse_grid("10:200:10") == [10.0 + 10.0 * k for k in range(20)]

    def test_scalar_and_list(self):
        assert parse_grid("42") == [42.0]
        assert parse_grid("1,2.5,7") == [1.0, 2.5, 7.0]

    def test_lists_of_floats(self):
        for spec in ("10:200:10", "42", "1,2.5,7"):
            grid = parse_grid(spec)
            assert type(grid) is list and all(type(v) is float for v in grid)

    def test_inclusive_endpoint(self):
        assert parse_grid("20:200:20")[-1] == 200.0

    def test_range_matches_accumulation_loop(self):
        # the reference: start + k * step for k = 0, 1, ... while within the
        # stop's tolerance, as Python floats
        def loop(start, stop, step):
            values, k = [], 0
            while start + k * step <= stop + step * 1e-9:
                values.append(start + k * step)
                k += 1
            return values

        rng = random.Random(3)
        grids = [(0.0, 100.0, 0.001), (0.0, 0.3, 0.1), (0.1, 0.7, 0.2), (-5.0, 5.0, 0.01), (1.0, 1.0, 1.0)]
        for _ in range(500):
            start, step = rng.uniform(-100.0, 100.0), rng.choice([rng.uniform(1e-3, 10.0), 0.1, 0.3, 0.7])
            grids.append((start, start + step * rng.choice([rng.randint(0, 300), rng.uniform(0.0, 300.0)]), step))
        for start, stop, step in grids:
            got = parse_grid(f"{start!r}:{stop!r}:{step!r}")
            assert got == loop(start, stop, step) and all(type(v) is float for v in got), (start, stop, step)

    def test_bad_ranges(self):
        from maintsim.cli import _UsageError

        for bad in ("200:10:10", "1:10:0", "abc", "1:2", ",", ",,"):
            with pytest.raises(_UsageError):
                parse_grid(bad)


class TestTheory:
    def test_error_avg_grid(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(["theory", "--mode", "error_avg", "--sigma", "5", "--lambda", "0.1",
                    "--T", "10:200:10", "--out", str(out)])
        assert code == EXIT_OK
        meta, header, rows = read_csv(out)
        assert header == ["T", "lambda", "sigma", "error_avg"]
        assert len(rows) == 20
        by_T = {float(r[0]): float(r[3]) for r in rows}
        assert by_T[100.0] == pytest.approx(10133.26674676968, rel=1e-12)
        assert meta["mode"] == "error_avg"

    def test_error_t_grid(self, tmp_path):
        out = tmp_path / "pointwise.csv"
        code = run(["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1",
                    "--T", "100", "--t", "0:100:25", "--out", str(out)])
        assert code == EXIT_OK
        _, header, rows = read_csv(out)
        assert header == ["t", "error_t"]
        assert len(rows) == 5
        values = {float(r[0]): float(r[1]) for r in rows}
        assert values[0.0] == 0.0 and values[100.0] == 0.0
        assert values[25.0] == values[75.0]

    def test_asymptote_constant_column(self, tmp_path):
        out = tmp_path / "asym.csv"
        code = run(["theory", "--mode", "asymptote", "--sigma", "10", "--C", "50",
                    "--T", "20:200:20", "--out", str(out)])
        assert code == EXIT_OK
        _, header, rows = read_csv(out)
        assert header == ["T", "lambda", "sigma", "error_avg", "asymptote"]
        assert len(rows) == 10
        constants = {float(r[4]) for r in rows}
        assert len(constants) == 1
        assert constants.pop() == pytest.approx(3333.3333333333335, rel=1e-12)
        last = rows[-1]
        assert float(last[3]) == pytest.approx(3312.5624218750004, rel=1e-12)

    def test_usage_errors(self, tmp_path):
        assert run(["theory", "--mode", "error_avg", "--sigma", "5", "--T", "10:20:10"]) == EXIT_USAGE
        assert run(["theory", "--mode", "error_avg", "--sigma", "5", "--lambda", "0.1",
                    "--T", "200:10:10"]) == EXIT_USAGE
        assert run(["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1",
                    "--T", "10:20:10", "--t", "0:10:1"]) == EXIT_USAGE
        assert run(["theory", "--mode", "nope", "--sigma", "5"]) == EXIT_USAGE

    @pytest.mark.parametrize("mode,flags", [("error_avg", ["--lambda", "0.1"]), ("asymptote", ["--C", "50"])])
    def test_empty_grid_writes_nothing(self, tmp_path, mode, flags):
        out = tmp_path / "empty.csv"
        assert run(["theory", "--mode", mode, "--sigma", "5", *flags, "--T", ",", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode,flags,ignored",
        [
            ("error_avg", ["--lambda", "0.1", "--T", "100"], ["--C", "50"]),
            ("error_avg", ["--lambda", "0.1", "--T", "100"], ["--t", "0:100:50"]),
            ("error_t", ["--lambda", "0.1", "--T", "100", "--t", "0:100:50"], ["--C", "50"]),
            ("asymptote", ["--C", "50", "--T", "100"], ["--lambda", "0.1"]),
            ("asymptote", ["--C", "50", "--T", "100"], ["--t", "0:100:50"]),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_flag_the_mode_ignores_is_usage_error(self, tmp_path, capsys, mode, flags, ignored):
        out = tmp_path / "x.csv"
        argv = ["theory", "--mode", mode, "--sigma", "5", *flags, "--out", str(out)]
        assert run(argv) == EXIT_OK
        out.unlink()
        assert run([*argv, *ignored]) == EXIT_USAGE
        assert "does not take" in capsys.readouterr().err
        assert not out.exists()

    def test_validation_error_exit(self, tmp_path):
        out = tmp_path / "x.csv"
        code = run(["theory", "--mode", "error_avg", "--sigma", "-5", "--lambda", "0.1",
                    "--T", "10:20:10", "--out", str(out)])
        assert code == EXIT_VALIDATION


class TestSimulate:
    FAST_FIG5 = ["--T", "20,40", "--replications", "60", "--seed", "42"]

    def test_fig5_reruns_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["simulate", "fig5", *self.FAST_FIG5, "--out", str(a)]) == EXIT_OK
        assert run(["simulate", "fig5", *self.FAST_FIG5, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        ma = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        mb = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert ma["config"] == mb["config"]
        assert ma["experiment"] == "fig5" and ma["seed"] == 42
        assert ma["tool_version"]

    @pytest.mark.parametrize("argv", [["fig4", "--replications", "60", "--seed", "3"], ["fig6", *FAST_FIG5]])
    def test_manifest_reads_back_as_written(self, tmp_path, monkeypatch, argv):
        written = []
        write = maintsim.output.write_manifest

        def capture(path, manifest):
            written.append(manifest)
            write(path, manifest)

        # cmd_simulate imports the writer when it runs, so patch it where it lives
        monkeypatch.setattr(maintsim.output, "write_manifest", capture)
        out = tmp_path / "run.csv"
        assert run(["simulate", *argv, "--out", str(out)]) == EXIT_OK
        (manifest,) = written
        back = read_manifest(tmp_path / "run.csv.manifest.json")
        for field in manifest._fields:
            got, want = getattr(back, field), getattr(manifest, field)
            assert type(got) is type(want) and got == want, field
        # JSON keeps every setting's type: ints stay ints, floats floats
        assert {k: type(v) for k, v in back.config.items()} == {k: type(v) for k, v in manifest.config.items()}
        assert back.outputs == ("run.csv",)

    def test_fig5_columns_and_metadata(self, tmp_path):
        out = tmp_path / "f5.csv"
        run(["simulate", "fig5", *self.FAST_FIG5, "--out", str(out)])
        meta, header, rows = read_csv(out)
        assert header == ["T", "mean_sq_error", "std_error", "samples", "theory_error_avg"]
        assert len(rows) == 2
        assert meta["experiment"] == "fig5"
        assert "queries" not in meta
        assert all(int(r[3]) == 60 for r in rows)

    def test_fig6_asymptote_column(self, tmp_path):
        out = tmp_path / "f6.csv"
        code = run(["simulate", "fig6", "--T", "20,200", "--replications", "80", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        _, header, rows = read_csv(out)
        assert header[-1] == "asymptote"
        constants = {float(r[-1]) for r in rows}
        assert len(constants) == 1
        assert constants.pop() == pytest.approx(3333.3333333333335, rel=1e-12)
        assert [float(r[1]) for r in rows] == [0.4, 4.0]

    def test_fig4_has_both_series(self, tmp_path):
        out = tmp_path / "f4.csv"
        code = run(["simulate", "fig4", "--replications", "60", "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        _, header, rows = read_csv(out)
        assert header[0] == "protocol"
        assert {r[0] for r in rows} == {"MAINT", "MADRD"}

    def test_fig4_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, set_cpus):
        # every chunk draws from its own stream and its bins' partial
        # moments are merged in chunk order, so 1, 2 and 3 usable CPUs write
        # the same CSV and manifest; 2 000 replications are 8 chunks
        outputs = []
        for cpus in (1, 2, 3):
            set_cpus(cpus)
            out = tmp_path / str(cpus) / "fig4.csv"
            out.parent.mkdir()
            assert run(["simulate", "fig4", "--replications", "2000", "--queries", "2", "--out", str(out)]) == EXIT_OK
            outputs.append((out.read_bytes(), (out.parent / "fig4.csv.manifest.json").read_bytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("exp,replications", [("fig5", "2000"), ("fig6", "300")])
    def test_sweep_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, set_cpus, exp, replications):
        # each period is a chunk group: every chunk draws from its own
        # stream and the partial moments are merged in chunk order, so 1, 2
        # and 3 usable CPUs write the same CSV and manifest; from T = 80 on
        # a period spans 2 to 3 chunks of fig5 and 2 to 9 of fig6 here
        outputs = []
        for cpus in (1, 2, 3):
            set_cpus(cpus)
            out = tmp_path / str(cpus) / f"{exp}.csv"
            out.parent.mkdir()
            assert run(["simulate", exp, "--replications", replications, "--out", str(out)]) == EXIT_OK
            outputs.append((out.read_bytes(), (out.parent / f"{exp}.csv.manifest.json").read_bytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_every_value_handed_to_the_csv_writer_is_plain(self, tmp_path, monkeypatch):
        # the writer formats exactly float, int, str and bool; np.float64 is
        # a float subclass whose repr is not the float's, so every command
        # converts its results before it hands them over
        from maintsim import output

        real, seen = output.write_csv, []

        def checked(path, header, columns, metadata=None):
            seen.append([*(v for col in columns for v in col[:]), *metadata.values()])
            return real(path, header, columns, metadata)

        monkeypatch.setattr(output, "write_csv", checked)
        commands = [
            ["simulate", "fig4", "--replications", "300", "--queries", "2"],
            ["simulate", "fig5", "--replications", "300"],
            ["simulate", "fig6", "--replications", "300"],
            ["simulate", "moments", "--samples", "10000", "--n-max", "2"],
            ["theory", "--mode", "error_avg", "--sigma", "5", "--lambda", "0.1", "--T", "10:200:10"],
            ["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1", "--T", "100", "--t", "0:100:5"],
            ["theory", "--mode", "asymptote", "--sigma", "10", "--C", "50", "--T", "20:200:20"],
        ]
        for k, argv in enumerate(commands):
            assert run([*argv, "--out", str(tmp_path / f"{k}.csv")]) == EXIT_OK
        assert len(seen) == len(commands)
        for argv, values in zip(commands, seen):
            assert {type(v) for v in values} <= {float, int, str, bool}, argv

    def test_moments_pass_exit_zero(self, tmp_path):
        out = tmp_path / "m.csv"
        code = run(["simulate", "moments", "--samples", "20000", "--n-max", "3",
                    "--seed", "8", "--out", str(out)])
        assert code == EXIT_OK
        _, header, rows = read_csv(out)
        assert header[0] == "check" and header[4] == "z"
        assert all(abs(float(r[4])) < 4.0 for r in rows)

    def test_moments_failure_exit_two(self, tmp_path, monkeypatch):
        import maintsim.montecarlo

        broken = [Estimate(key="x", samples=10000, mean=1.0, std_error=0.1, theory=0.0, z=10.0)]
        monkeypatch.setattr(maintsim.montecarlo, "validate_conditional_moments", lambda **kw: broken)
        out = tmp_path / "m.csv"
        assert run(["simulate", "moments", "--out", str(out)]) == EXIT_VALIDATION
        assert out.exists()

    @pytest.mark.parametrize("rows", [slice(None), slice(1)], ids=["both", "on-theory"])
    def test_moments_zero_standard_error_exit_two(self, tmp_path, monkeypatch, rows):
        # an se of 0 gives z = inf, also for a mean equal to its theory:
        # the gate cannot tell them apart, so it fails
        import maintsim.montecarlo

        checks = zero_standard_error_rows()[rows]
        monkeypatch.setattr(maintsim.montecarlo, "validate_conditional_moments", lambda **kw: checks)
        out = tmp_path / "m.csv"
        assert run(["simulate", "moments", "--out", str(out)]) == EXIT_VALIDATION
        assert [r[4] for r in read_csv(out)[2]] == ["inf"] * len(checks)

    def test_memory_error_exits_two(self, tmp_path, monkeypatch, capsys):
        # a run that still needs more memory than is available: one line,
        # exit 2 and no file
        import maintsim.montecarlo

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(maintsim.montecarlo, "run_period_sweep", exhausted)
        out = tmp_path / "f.csv"
        assert run(["simulate", "fig5", *self.FAST_FIG5, "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "needs more memory than is available" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_memory_error_in_a_child_exits_two(self, tmp_path, monkeypatch, capsys):
        # the moment check on two CPUs: the caller sleeps before its first
        # chunk, so the forked child draws the others and runs out of
        # memory at its first draw; the caller exits 2 and writes nothing
        import numpy as np

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        real_rng, parent = np.random.default_rng, os.getpid()

        def default_rng(key):
            if os.getpid() != parent:
                raise MemoryError
            time.sleep(0.5)
            return real_rng(key)

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        out = tmp_path / "m.csv"
        assert run(["simulate", "moments", "--samples", "10000", "--n-max", "2", "--out", str(out)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "needs more memory than is available" in err and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_failed_manifest_leaves_no_csv(self, tmp_path, monkeypatch, capsys):
        # the CSV is renamed into place only once the manifest is written too
        import maintsim.output

        def failing(path, manifest):
            open(path, "w").close()
            raise OSError("injected")

        monkeypatch.setattr(maintsim.output, "write_manifest", failing)
        out = tmp_path / "f.csv"
        assert run(["simulate", "fig5", *self.FAST_FIG5, "--out", str(out)]) == EXIT_IO
        assert "injected" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_experiment_is_usage_error(self):
        assert run(["simulate", "fig9"]) == EXIT_USAGE

    def test_unwritable_output_is_io_error(self, tmp_path):
        missing = tmp_path / "not" / "there" / "f.csv"
        assert run(["simulate", "fig5", *self.FAST_FIG5, "--out", str(missing)]) == EXIT_IO

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MAINTSIM_OUTDIR", str(tmp_path))
        assert run(["simulate", "fig5", *self.FAST_FIG5]) == EXIT_OK
        assert (tmp_path / "fig5.csv").exists()
        assert (tmp_path / "fig5.csv.manifest.json").exists()

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep setup\nreplications = 33\nT = 30,60\nseed = 5\n")
        out = tmp_path / "out.csv"
        code = run(["simulate", "fig5", "--config", str(cfg), "--replications", "44", "--out", str(out)])
        assert code == EXIT_OK
        meta, _, rows = read_csv(out)
        assert meta["replications"] == "44"  # flag beats file
        assert meta["seed"] == "5"
        assert [float(r[0]) for r in rows] == [30.0, 60.0]

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert run(["simulate", "fig5", "--config", str(cfg)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4", "--replications", "5", "--T", "5"],
            ["fig5", "--T", "20", "--replications", "5", "--C", "50"],
            ["moments", "--samples", "10000", "--replications", "5"],
            ["fig5", "--T", ",", "--replications", "5"],
            ["fig5", "--queries", "2"],
            ["fig6", "--queries", "2"],
            ["fig5", "--span", "50"],
            ["fig6", "--lambda", "1"],
            ["fig6", "--span", "50"],
            ["moments", "--span", "50"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_setting_the_experiment_ignores_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x.csv"
        assert run(["simulate", *argv, "--out", str(out)]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "x.csv.manifest.json").exists()

    def test_config_key_the_experiment_ignores_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "x.csv"
        for experiment, text in (
            ("fig4", "replications = 5\nsamples = 10000"),
            ("fig6", "replications = 5\nqueries = 2"),
            ("moments", "samples = 10000\nspan = 100"),
        ):
            cfg.write_text(f"{text}\n")
            assert run(["simulate", experiment, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
            assert not out.exists()

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("replications = abc\n")
        assert run(["simulate", "fig5", "--config", str(cfg)]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err


BAD_FLAGS = [
    ["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "inf", "--T", "100", "--t", "0:100:50"],
    ["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1", "--T", "inf", "--t", "0:100:50"],
    ["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "1e-300", "--T", "100", "--t", "0:100:50"],
    ["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1", "--T", "100", "--t", "nan"],
    ["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1", "--T", "100", "--t", "0,inf"],
    ["theory", "--mode", "error_avg", "--sigma", "5", "--lambda", "1e-300", "--T", "100"],
    ["theory", "--mode", "error_avg", "--sigma", "nan", "--lambda", "0.1", "--T", "100"],
    ["theory", "--mode", "error_avg", "--sigma", "inf", "--lambda", "0.1", "--T", "100"],
    ["theory", "--mode", "error_avg", "--sigma", "1e200", "--lambda", "0.1", "--T", "100"],
    ["theory", "--mode", "error_avg", "--sigma", "5", "--lambda", "nan", "--T", "100"],
    ["theory", "--mode", "error_avg", "--sigma", "5", "--lambda", "0.1", "--T", "10,inf"],
    ["theory", "--mode", "asymptote", "--sigma", "10", "--C", "inf", "--T", "100"],
    ["theory", "--mode", "asymptote", "--sigma", "10", "--C", "nan", "--T", "100"],
    ["simulate", "fig4", "--lambda", "inf", "--replications", "5"],
    ["simulate", "fig4", "--sigma", "inf", "--replications", "5"],
    ["simulate", "fig4", "--span", "inf", "--replications", "5"],
    ["simulate", "fig5", "--T", "20,inf", "--replications", "5"],
    ["simulate", "fig5", "--lambda", "1e-300", "--T", "20", "--replications", "5"],
    ["simulate", "fig6", "--C", "inf", "--T", "20", "--replications", "5"],
    ["simulate", "moments", "--sigma", "nan", "--samples", "10000"],
    ["simulate", "fig5", "--seed", "-1"],
    ["simulate", "moments", "--lambda", "-1", "--samples", "10000"],
    ["simulate", "fig6", "--sigma", "nan"],
]


@pytest.mark.parametrize("argv", BAD_FLAGS, ids=lambda argv: " ".join(argv[:2] + argv[-4:]))
def test_bad_values_exit_two_without_traceback(tmp_path, capsys, argv):
    out = tmp_path / "bad.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "invalid parameters" in err and "Traceback" not in err
    assert not out.exists()


def run_capped_child(argv, cap=1 << 30):
    """The CLI in a child with an address-space cap of ``cap`` bytes (1 GiB
    by default), so that a grid that asks for too much memory fails instead
    of exhausting it."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(maintsim.__file__))
    return subprocess.run(
        [sys.executable, "-m", "maintsim.cli", *argv],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=limit, capture_output=True, text=True, timeout=60,
    )


def test_write_beyond_the_file_size_limit_leaves_nothing(tmp_path):
    # ulimit -f 1000 (1 024 000 bytes) and a 2.5 MB grid: the write fails
    # with exit 3, and neither a cut CSV nor a temporary file is left
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_FSIZE, (1000 * 1024, 1000 * 1024))

    out = tmp_path / "grid.csv"
    argv = ["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1", "--T", "100", "--t", "0:100:0.001"]
    src = os.path.dirname(os.path.dirname(maintsim.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "maintsim.cli", *argv, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src}, preexec_fn=limit, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_IO, proc.stderr
    assert proc.stderr.startswith("i/o error:") and len(proc.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec", ["0:inf:1", "-inf:0:1", "0:1:inf", "nan:1:0.5"])
def test_non_finite_grid_range_exits_two(tmp_path, spec):
    # a range that never reaches its stop would append forever
    argv = ["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1", "--T", "100",
            f"--t={spec}", "--out", str(tmp_path / "g.csv")]
    proc = run_capped_child(argv)
    assert proc.returncode == EXIT_VALIDATION
    assert "finite" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("spec", ["0:100:1e-12", "0:1e7:1", "-1e308:1e308:1", "0:1:5e-324"])
def test_oversized_grid_range_exits_two(tmp_path, spec):
    argv = ["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1", "--T", "100",
            f"--t={spec}", "--out", str(tmp_path / "g.csv")]
    proc = run_capped_child(argv)
    assert proc.returncode == EXIT_VALIDATION
    assert "at most 10000000" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("experiment", ["fig4", "fig5", "fig6"])
def test_replication_cap_exits_two(tmp_path, experiment):
    # every experiment folds its samples in fixed memory, so an oversized
    # run would not fail on allocation but run for hours: --replications
    # is capped as --samples is
    out = tmp_path / "big.csv"
    proc = run_capped_child(["simulate", experiment, "--replications", "1000000000", "--out", str(out)])
    assert proc.returncode == EXIT_VALIDATION
    assert "at most 100000000" in proc.stderr
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1
    assert not out.exists() and not (tmp_path / "big.csv.manifest.json").exists()


def test_sample_cap_exits_two(tmp_path):
    # the moment check runs in fixed memory, so an oversized run would not
    # fail on allocation but run for minutes: --samples is capped instead
    out = tmp_path / "big.csv"
    proc = run_capped_child(["simulate", "moments", "--samples", "200000000", "--out", str(out)])
    assert proc.returncode == EXIT_VALIDATION
    assert "at most 100000000" in proc.stderr
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1
    assert not out.exists() and not (tmp_path / "big.csv.manifest.json").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [("--lambda", "1e-300", "lambda_rate**2 underflows"), ("--sigma", "1e200", "sigma**2 overflows")],
)
def test_moment_closed_form_failure_exits_two(tmp_path, capsys, flag, value, message):
    # evaluated before the first draw: one line, no file and no traceback
    out = tmp_path / "moments.csv"
    assert run(["simulate", "moments", flag, value, "--samples", "10000", "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == 1
    assert not out.exists() and not (tmp_path / "moments.csv.manifest.json").exists()


@pytest.mark.parametrize("queries, status", [(1000, EXIT_OK), (1001, EXIT_VALIDATION)])
def test_query_cap_is_inclusive(tmp_path, capsys, queries, status):
    # a chunk's records grow with --queries, and so does fig4's peak memory,
    # so --queries is capped as --replications is
    out = tmp_path / "q.csv"
    argv = ["simulate", "fig4", "--replications", "1", "--queries", str(queries), "--out", str(out)]
    assert run(argv) == status
    err = capsys.readouterr().err
    if status == EXIT_OK:
        assert out.exists() and not err
    else:
        assert "queries must be >= 1 and at most 1000" in err and len(err.splitlines()) == 1
        assert not out.exists() and not (tmp_path / "q.csv.manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "fig5", "--sigma", "1e100", "--T", "20,40", "--replications", "20"],
        ["simulate", "fig4", "--sigma", "1e160", "--replications", "100"],
        ["simulate", "moments", "--sigma", "1e150", "--samples", "10000"],
    ],
    ids=lambda argv: " ".join(argv[1:4]),
)
def test_overflowing_estimates_exit_two(tmp_path, capsys, argv):
    # squared errors overflow: these wrote an inf standard error, inf and
    # nan bins, and a moment check that passed with inf standard errors and
    # z = 0, each with exit 0
    out = tmp_path / "big.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "overflows float64; lower sigma" in err and len(err.splitlines()) == 1
    assert not out.exists() and not (tmp_path / "big.csv.manifest.json").exists()


def test_n_max_cap_exits_two(tmp_path):
    # the report holds 5 n_max^2 / 2 checks, which the fixed-size chunks do
    # not bound, so --n-max is capped
    out = tmp_path / "big.csv"
    proc = run_capped_child(["simulate", "moments", "--samples", "10000", "--n-max", "101", "--out", str(out)])
    assert proc.returncode == EXIT_VALIDATION
    assert "at most 100" in proc.stderr
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1
    assert not out.exists() and not (tmp_path / "big.csv.manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "fig4", "--lambda", "1e20"],
        ["simulate", "fig5", "--lambda", "1e20", "--T", "10"],
        ["simulate", "fig6", "--T", "1e25"],
        # lambda * T overflows to inf
        ["simulate", "fig5", "--lambda", "1e300", "--T", "1e10"],
    ],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_window_leg_cap_exits_two(tmp_path, argv):
    # refused before anything is allocated: past numpy's limits these ended
    # in a traceback, and below them in an allocation failure
    out = tmp_path / "huge.csv"
    proc = run_capped_child([*argv, "--out", str(out)])
    assert proc.returncode == EXIT_VALIDATION
    assert f"lambda times the window length must be at most {_MAX_WINDOW_LEGS:g}" in proc.stderr
    assert "Traceback" not in proc.stderr and len(proc.stderr.splitlines()) == 1
    assert not out.exists() and not (tmp_path / "huge.csv.manifest.json").exists()


def test_window_cap_holds_in_memory(tmp_path):
    # lambda * T = 1e9 was accepted and then needed some 56 GB a row: under
    # a 1 GiB address-space cap it ended in "memory error", and uncapped the
    # OS killed it.  The cap is derived from the bytes a row needs, so the
    # run is refused before any draw; it only ever runs capped here
    out = tmp_path / "wide.csv"
    proc = run_capped_child(["simulate", "fig5", "--lambda", "1e8", "--T", "10", "--replications", "20",
                             "--out", str(out)])
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr == (
        f"invalid parameters: lambda times the window length must be at most {_MAX_WINDOW_LEGS:g}, got 1e+09\n"
    )
    assert not out.exists() and not (tmp_path / "wide.csv.manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "fig6", "--replications", "4096", "--T", "400"],
        ["simulate", "moments", "--lambda", "50", "--samples", "20000"],
    ],
)
def test_long_windows_run_in_256_mib(tmp_path, argv):
    # lambda * T = 3200 and 500: window batches are sized by the draw
    # budget, so these fit in a quarter of the default cap; batches of 4096
    # windows ran out of it
    out = tmp_path / "long.csv"
    proc = run_capped_child([*argv, "--out", str(out)], cap=256 << 20)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert out.exists()


def test_grid_cap_is_inclusive(monkeypatch):
    import maintsim.cli as cli

    monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 5)
    assert parse_grid("0:4:1") == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(ParameterError):
        parse_grid("0:5:1")


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs every CLI start about 0.3 s, and only the tests need it
    code = (
        "import sys, maintsim.cli, maintsim.montecarlo\n"
        "from maintsim.analytic import error_at\n"
        "error_at(5.0, 0.1, 100.0, 30.0)\n"
        "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(maintsim.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0


def modules_loaded_by(argv, tmp_path, modules):
    """Run the CLI with ``argv`` in a fresh interpreter in ``tmp_path``; its
    exit status, standard error, and which of ``modules`` it had loaded."""
    code = (
        "import json, sys\n"
        "from maintsim.cli import main\n"
        "try:\n"
        "    status = main(sys.argv[2:])\n"
        "except SystemExit as exc:  # --version and --help exit through argparse\n"
        "    status = exc.code\n"
        "print(json.dumps(sorted(set(json.loads(sys.argv[1])) & set(sys.modules))))\n"
        "sys.exit(status)"
    )
    src = os.path.dirname(os.path.dirname(maintsim.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(sorted(modules)), *argv], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src, "MAINTSIM_OUTDIR": str(tmp_path)},
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stderr, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1", "--T", "100", "--t", "0:100:5"], ["--version"]],
)
def test_theory_and_version_leave_the_simulation_stack_unloaded(tmp_path, argv):
    # the simulation stack costs every CLI start tens of milliseconds, and
    # only simulate needs it
    stack = {"maintsim.montecarlo", "maintsim.mobility", "maintsim.protocols", "numpy.random"}
    status, err, loaded = modules_loaded_by(argv, tmp_path, stack)
    assert status == EXIT_OK, err
    assert loaded == []


@pytest.mark.parametrize(
    "argv",
    [
        ["error_t", "--sigma", "5", "--lambda", "0.1", "--T", "100", "--t", "0:100:0.01"],
        ["error_avg", "--sigma", "5", "--lambda", "0.1", "--T", "1:10000:1"],
        ["asymptote", "--sigma", "10", "--C", "50", "--T", "20:200:20"],
    ],
    ids=lambda argv: argv[0],
)
def test_theory_leaves_numpy_unloaded(tmp_path, argv):
    # the kernels use the math module only and the writer tells numpy
    # values apart without importing it: numpy's import was about a third
    # of a theory child's wall time
    status, err, loaded = modules_loaded_by(["theory", "--mode", *argv], tmp_path, {"numpy", "dataclasses"})
    assert status == EXIT_OK, err
    assert loaded == []


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "fig4", "--replications", "300"],
        ["simulate", "fig5", "--replications", "20"],
        ["simulate", "fig6", "--replications", "20"],
        ["simulate", "moments", "--samples", "10000", "--n-max", "2"],
    ],
    ids=lambda argv: argv[1],
)
def test_simulate_leaves_the_protocol_state_machines_unloaded(tmp_path, argv):
    # the block runners take plain settings, and the state machines of
    # protocols are the tests' reference: loading them cost every simulate
    # child about 7 ms
    status, err, loaded = modules_loaded_by(argv, tmp_path, {"maintsim.protocols"})
    assert status == EXIT_OK, err
    assert loaded == []


@pytest.mark.parametrize(
    "argv, status",
    [
        (["simulate", "fig5", "--replications", "20", "--T", "20,40"], EXIT_OK),
        (["simulate", "fig9"], EXIT_USAGE),
        (["simulate", "fig4", "--queries", "1001"], EXIT_VALIDATION),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_entry_exits_as_main_returns(tmp_path, capsys, monkeypatch, argv, status):
    # the console entry point freezes the collector before exiting; its
    # exit status and output lines are those of main in process
    monkeypatch.chdir(tmp_path)
    out = ["--out", "run.csv"] if status == EXIT_OK else []
    assert run([*argv, *out]) == status
    want = capsys.readouterr()
    src = os.path.dirname(os.path.dirname(maintsim.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "from maintsim.cli import entry; entry()", *argv, *out],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == status
    assert (proc.stdout, proc.stderr) == (want.out, want.err)


NUMPY_FREE = [
    (["--version"], EXIT_OK),
    (["--help"], EXIT_OK),
    (["simulate", "--help"], EXIT_OK),
    (["simulate", "fig4", "--T", "5"], EXIT_USAGE),
    (["simulate", "fig4", "--config", "unknown.cfg"], EXIT_USAGE),
    (["theory", "--mode", "error_t", "--sigma", "5"], EXIT_USAGE),
    (["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1", "--T", "1,2", "--t", "0:1:1"], EXIT_USAGE),
    (["theory", "--mode", "error_avg", "--sigma", "5", "--lambda", "0.1", "--T", "1:0:1"], EXIT_USAGE),
    (["simulate", "fig5", "--T", "1:0:1"], EXIT_USAGE),
    (["simulate", "fig6", "--lambda", "1"], EXIT_USAGE),
    (["theory", "--mode", "asymptote", "--sigma", "10", "--C", "50", "--T", "20", "--lambda", "1"], EXIT_USAGE),
]


@pytest.mark.parametrize("argv,status", NUMPY_FREE, ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_front_end_answers_without_numpy(tmp_path, argv, status):
    # importing numpy is most of a bare CLI start; only the commands that
    # compute need it
    (tmp_path / "unknown.cfg").write_text("replicates = 5\n")
    got, err, loaded = modules_loaded_by(argv, tmp_path, {"numpy"})
    assert got == status, err
    assert "Traceback" not in err
    assert loaded == []


LARGE_LAMBDA = [
    ["theory", "--mode", "error_avg", "--sigma", "5", "--lambda", "1e200", "--T", "100"],
    ["theory", "--mode", "asymptote", "--sigma", "5", "--C", "1e-300", "--T", "1"],
    ["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "1e200", "--T", "100", "--t", "10,50"],
]


@pytest.mark.parametrize("argv", LARGE_LAMBDA, ids=lambda argv: argv[2])
def test_large_lambda_matches_the_closed_form(tmp_path, argv):
    # lambda**2 overflows above lambda ~ 1e154, and these printed 0.0 up to
    # 0.7.0; the closed forms evaluated at 50 digits
    import mpmath  # in the test extra

    out = tmp_path / "large.csv"
    assert run([*argv, "--out", str(out)]) == EXIT_OK
    meta, header, rows = read_csv(out)
    with mpmath.workdps(50):
        mp = mpmath.mpf
        sigma = mp(meta["sigma"])
        for row in rows:
            if header[1] == "error_t":
                lam, T, t = mp(meta["lambda"]), mp(meta["T"]), mp(row[0])
                u, w = min(t, T - t), max(t, T - t)

                def gap(y):
                    return mpmath.exp(-y) - 1 + y

                def rise(y):
                    return 1 - mpmath.exp(-y)

                want = 4 * sigma**2 / (lam * T) ** 2 * (
                    u * u * gap(lam * w) + w * w * gap(lam * u) - u * w * rise(lam * u) * rise(lam * w)
                )
                got = float(row[1])
            else:
                T, lam = mp(row[0]), mp(row[1])
                x = lam * T
                want = 2 * sigma**2 / (3 * lam**2) * (
                    x - 5 + 12 / x - 12 / x**2 + 12 * mpmath.exp(-x) / x**2 - mpmath.exp(-x)
                )
                got = float(row[header.index("error_avg")])
            assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)
