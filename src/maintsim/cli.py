"""Command-line front end.

Two subcommands: ``theory`` evaluates the closed-form error curves onto a
CSV grid, ``simulate`` runs a named experiment (fig4, fig5, fig6, moments)
and writes its CSV plus a JSON manifest that pins seed and configuration.
One table, ``_SETTINGS``, lists the settings that each theory mode and each
experiment takes: every theory setting is required, every simulate setting
has a default that a ``--config`` file and then a flag override.  A flag or
config key that the command does not take, and a required one left unset,
are usage errors.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 I/O error.
Every experiment runs in fixed memory, so ``--replications`` and
``--samples`` above 10^8 exit 2 with one line and no file, and so do a
``--queries`` above 1000, an ``--n-max`` above 100, a window with
lambda * T above about 1.9 * 10^7 (one window row in 1 GiB) and a run that
still needs more memory than is available.  So does a simulation whose
means or standard errors overflow float64 (a sigma too large): no output
holds an inf or a nan.  The moment check writes its CSV and exits 2 when
any |z| is 4 or more.
Outputs default into $MAINTSIM_OUTDIR (falling back to the working
directory) and depend only on the manifest and tool version: re-running a
command reproduces its files byte for byte.  The CSV and then the manifest
are written to temporary names beside them and renamed into place once
both are whole, so a run stopped by an error leaves neither.

``theory`` never holds a grid whole: it hands the CSV writer columns that
compute their grid points (start + step * k for point k) and the kernel's
values a slice at a time, so each chunk of rows is computed where it is
formatted, on every usable CPU, and memory does not grow with the grid.
This module imports only the standard library, the version and the
exception types: ``theory`` loads ``analytic`` and ``output``, which need
no numpy, and ``simulate`` loads those, numpy and the simulation stack
(``mobility`` and ``montecarlo``), each after its settings and grids are
checked.  So ``theory``, ``--version``, ``--help`` and every usage error
answer without numpy.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from . import __version__
from .errors import ParameterError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

EXPERIMENTS = ("fig4", "fig5", "fig6", "moments")

# largest start:stop:step grid; a typo such as 0:100:1e-12 would otherwise
# ask for 1e14 points
_MAX_GRID_POINTS = 10_000_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; keep usage at 1
        raise _UsageError(message)


class _Mapped:
    """``fn`` over the values of ``base``, a sequence, evaluated a slice at
    a time: it has a length and gives a list for a slice, which is all the
    CSV writer asks of a column."""

    __slots__ = ("fn", "base")

    def __init__(self, fn, base):
        self.fn = fn
        self.base = base

    def __len__(self) -> int:
        return len(self.base)

    def __getitem__(self, rows: slice) -> list:
        return list(map(self.fn, self.base[rows]))


def _read_grid(spec: str):
    """Grid ``spec`` checked and read: for 'start:stop:step', the points
    start + step * k for k < n, evaluated only when sliced; the values of
    'a,b,c' or a single number as a list."""
    try:
        if ":" in spec:
            start_s, stop_s, step_s = spec.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if not all(map(math.isfinite, (start, stop, step))):
                # an inf or nan bound or step makes no meaningful grid
                raise ParameterError(f"grid {spec!r} needs finite start, stop and step")
            if step <= 0 or stop < start:
                raise ValueError
            points = (stop - start) / step + 1.0
            if not points <= _MAX_GRID_POINTS:  # also an overflow to inf
                raise ParameterError(f"grid {spec!r} has {points:.3g} points; at most {_MAX_GRID_POINTS} are allowed")
            # the points grow with k, so the ones past the stop's tolerance
            # are the last of these candidates
            n = int(points) + 2
            while start + step * (n - 1) > stop + step * 1e-9:
                n -= 1
            return _Mapped(lambda k: start + step * k, range(n))
        if "," in spec:
            values = [float(v) for v in spec.split(",") if v]
            if not values:
                raise _UsageError(f"grid {spec!r} lists no values")
            return values
        return [float(spec)]
    except ParameterError:
        raise
    except ValueError:
        raise _UsageError(f"bad grid {spec!r}; expected start:stop:step, a,b,c or a number") from None


def parse_grid(spec: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive), 'a,b,c', or a single number
    into a list of floats."""
    return _read_grid(spec)[:]


def read_config_file(path) -> dict:
    """Parse a key=value config file (# comments and blank lines allowed)."""
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _outdir(args) -> str:
    if args.outdir:
        return args.outdir
    return os.environ.get("MAINTSIM_OUTDIR", ".")


def _build_parser() -> _Parser:
    parser = _Parser(prog="maintsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"maintsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    theory = sub.add_parser("theory", help="evaluate closed-form error curves to CSV")
    theory.add_argument("--mode", required=True, choices=("error_t", "error_avg", "asymptote"))
    theory.add_argument("--sigma", type=float)
    theory.add_argument("--lambda", dest="lambda_rate", type=float, help="waypoint rate (1/s)")
    theory.add_argument("--C", dest="ratio_C", type=float, help="constant T/lambda ratio")
    theory.add_argument("--T", help="period grid start:stop:step, list, or scalar")
    theory.add_argument("--t", help="evaluation-time grid for error_t mode")
    theory.add_argument("--out", help="output CSV path")
    theory.add_argument("--outdir", help="output directory (default $MAINTSIM_OUTDIR or .)")

    sim = sub.add_parser("simulate", help="run a named experiment")
    sim.add_argument("experiment", choices=EXPERIMENTS)
    sim.add_argument("--config", help="key=value config file; flags override it")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--sigma", type=float)
    sim.add_argument("--lambda", dest="lambda_rate", type=float)
    sim.add_argument("--span", type=float, help="simulated horizon of fig4")
    sim.add_argument("--T", help="period grid of fig5 and fig6")
    sim.add_argument("--C", dest="ratio_C", type=float)
    sim.add_argument("--replications", type=int, help="replications or windows per period, 1 to 10^8")
    sim.add_argument("--queries", type=int, help="query samples per replication (fig4), 1 to 1000")
    sim.add_argument("--samples", type=int, help="moment-validation sample count, 10000 to 10^8")
    sim.add_argument("--n-max", type=int, help="largest conditioned waypoint count, 1 to 100")
    sim.add_argument("--out", help="output CSV path")
    sim.add_argument("--outdir", help="output directory (default $MAINTSIM_OUTDIR or .)")
    return parser


# ---------------------------------------------------------------------------
# settings


# every setting that each theory mode and simulate experiment takes: a
# simulate setting with its default, a theory setting as _REQUIRED.  A
# setting's name is its flag's dest and its config key, and a config value
# is parsed as its default's type.
_REQUIRED = None
_SETTINGS = {
    "error_avg": dict(sigma=_REQUIRED, lambda_rate=_REQUIRED, T=_REQUIRED),
    "error_t": dict(sigma=_REQUIRED, lambda_rate=_REQUIRED, T=_REQUIRED, t=_REQUIRED),
    "asymptote": dict(sigma=_REQUIRED, ratio_C=_REQUIRED, T=_REQUIRED),
    "fig4": dict(sigma=5.0, lambda_rate=0.1, span=100.0, seed=0, replications=10000, queries=1),
    "fig5": dict(sigma=5.0, lambda_rate=0.1, seed=0, replications=100, T="20:200:20"),
    "fig6": dict(sigma=10.0, ratio_C=50.0, seed=0, replications=100, T="20:200:20"),
    "moments": dict(sigma=5.0, lambda_rate=0.1, seed=0, samples=100000, n_max=6),
}
_SETTING_NAMES = sorted({key for takes in _SETTINGS.values() for key in takes})


def _resolve_settings(name: str, args) -> dict:
    """The settings of mode or experiment ``name``: its table entry,
    overridden by the config file and then by flags.  A setting it does not
    take and a required one left unset are usage errors."""
    takes = _SETTINGS[name]
    given = read_config_file(args.config) if getattr(args, "config", None) else {}
    flags = {key: getattr(args, key) for key in _SETTING_NAMES if getattr(args, key, None) is not None}
    unused = sorted((given.keys() | flags.keys()) - takes.keys())
    if unused:
        raise _UsageError(f"{name} does not take {', '.join(unused)}; it takes {', '.join(sorted(takes))}")
    for key, raw in given.items():
        kind = type(takes[key])
        try:
            given[key] = kind(raw)
        except ValueError:
            raise _UsageError(f"config value {raw!r} of {key!r} is not a valid {kind.__name__}") from None
    settings = {**takes, **given, **flags}
    missing = [key for key, value in settings.items() if value is _REQUIRED]
    if missing:
        raise _UsageError(f"{name} needs {', '.join(missing)}")
    return settings


# ---------------------------------------------------------------------------
# theory


def cmd_theory(args) -> int:
    mode = args.mode
    settings = _resolve_settings(mode, args)
    sigma, lam, ratio_C = settings["sigma"], settings.get("lambda_rate"), settings.get("ratio_C")
    grid = _read_grid(settings["T"])
    if mode == "error_t":
        if len(grid) != 1:
            raise _UsageError("error_t mode takes a scalar --T")
        (T,) = grid[:]
        grid = _read_grid(settings["t"])

    from .analytic import error_asymptote, error_at_curve, error_avg
    from .output import replaced_on_success, write_csv

    out = args.out or os.path.join(_outdir(args), f"theory_{mode}.csv")
    meta = {"mode": mode, "sigma": sigma, "tool": f"maintsim {__version__}"}

    # every column is a _Mapped over the grid, so each chunk of the CSV
    # writer computes its own points and errors, on whichever CPU formats it
    if mode == "error_avg":
        meta["lambda"] = lam
        columns = (grid, _Mapped(lambda T: lam, grid), _Mapped(lambda T: sigma, grid),
                   _Mapped(lambda T: error_avg(sigma, lam, T), grid))
        header = ["T", "lambda", "sigma", "error_avg"]
    elif mode == "error_t":
        meta["lambda"], meta["T"] = lam, T
        columns = (grid, _Mapped(error_at_curve(sigma, lam, T), grid))
        header = ["t", "error_t"]
    else:  # asymptote
        limit = error_asymptote(sigma, ratio_C)
        meta["C"] = ratio_C
        columns = (grid, _Mapped(lambda T: T / ratio_C, grid), _Mapped(lambda T: sigma, grid),
                   _Mapped(lambda T: error_avg(sigma, T / ratio_C, T), grid), _Mapped(lambda T: limit, grid))
        header = ["T", "lambda", "sigma", "error_avg", "asymptote"]

    with replaced_on_success(out) as (temp,):
        count = write_csv(temp, header, columns, meta)
    print(f"wrote {count} rows -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    experiment = args.experiment
    settings = _resolve_settings(experiment, args)
    if "T" in settings:
        T_grid = parse_grid(settings["T"])  # a usage error before numpy loads
    # imported here, not at the top: only simulate uses the simulation
    # stack, and loading it costs every CLI start tens of ms
    from .analytic import error_asymptote
    from .mobility import ModelParams
    from .montecarlo import run_error_vs_count, run_period_sweep, validate_conditional_moments
    from .output import RunManifest, replaced_on_success, write_csv, write_manifest

    out = args.out or os.path.join(_outdir(args), f"{experiment}.csv")
    meta = dict(sorted(settings.items()))
    meta["experiment"] = experiment
    meta["tool"] = f"maintsim {__version__}"
    sigma, seed = settings["sigma"], settings["seed"]
    status = EXIT_OK

    if experiment in ("fig5", "fig6"):
        estimates = run_period_sweep(
            sigma,
            seed,
            T_grid,
            settings["replications"],
            lambda_rate=settings.get("lambda_rate"),
            ratio_C=settings.get("ratio_C"),
        )
        if experiment == "fig5":
            rows = [(e.key[0], e.mean, e.std_error, e.samples, e.theory) for e in estimates]
            header = ["T", "mean_sq_error", "std_error", "samples", "theory_error_avg"]
        else:
            limit = error_asymptote(sigma, settings["ratio_C"])
            rows = [(*e.key, e.mean, e.std_error, e.samples, e.theory, limit) for e in estimates]
            header = ["T", "lambda", "mean_sq_error", "std_error", "samples", "theory_error_avg", "asymptote"]
    elif experiment == "fig4":
        model = ModelParams(lambda_rate=settings["lambda_rate"], sigma=sigma, seed=seed, span=settings["span"])
        estimates = run_error_vs_count(model, settings["replications"], settings["queries"])
        # each bin's squared-error row, then its absolute-error row
        rows = [
            (*sq.key[:2], sq.samples, sq.mean, sq.std_error, ab.mean, ab.std_error)
            for sq, ab in zip(estimates[::2], estimates[1::2])
        ]
        header = [
            "protocol", "localization_count", "samples",
            "mean_sq_error", "std_error_sq", "mean_abs_error", "std_error_abs",
        ]
    else:  # moments
        estimates = validate_conditional_moments(
            sigma=sigma,
            lambda_rate=settings["lambda_rate"],
            n_max=settings["n_max"],
            samples=settings["samples"],
            seed=seed,
        )
        rows = [(e.key, e.mean, e.std_error, e.theory, e.z, e.samples) for e in estimates]
        header = ["check", "mc_mean", "std_error", "theory", "z", "samples"]
        if not all(abs(e.z) < 4.0 for e in estimates):
            status = EXIT_VALIDATION

    manifest = RunManifest(
        experiment=experiment, seed=seed, config=settings, outputs=(os.path.basename(out),), tool_version=__version__
    )
    with replaced_on_success(out, out + ".manifest.json") as (csv_temp, manifest_temp):
        count = write_csv(csv_temp, header, list(zip(*rows)), meta)
        write_manifest(manifest_temp, manifest)
    print(f"wrote {count} rows -> {out}")
    if status == EXIT_VALIDATION:
        print("moment validation FAILED: some |z| >= 4", file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "theory":
            return cmd_theory(args)
        return cmd_simulate(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("memory error: this run needs more memory than is available; ask for a smaller size", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    status = main()
    # spares the exit the interpreter's last collection, a walk of every object
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
