"""Seeded defects: every Monte Carlo and differential check that guards a
random object is shown to fail on a one-line defect in the code it guards
(mutation analysis: DeMillo, Lipton and Sayward, "Hints on test data
selection", *IEEE Computer* 11(4), 1978).

A defect replaces one line of one function of ``maintsim``: the function's
source is read with ``inspect.getsource``, the line is replaced, and the
mutant is compiled in the function's module and bound, for one test,
wherever the function was bound by name.  The line must occur exactly once
in the function, so a refactor that moves or rewrites it fails here loudly
instead of seeding a defect that changes nothing.

Each defect names the check that must catch it, at that check's own size
and seed (the acceptance criteria run at ``test_acceptance.SEED``), and the
test requires the check to fail on the mutant.  It prints the worst |z| of
the sweeps and moment checks that the check ran, so that a change to a
check can report how far each defect stays from its bound.  ``DEFECTS`` and
``inject`` are the fixture for such measurements.
"""

import __future__
import importlib
import inspect
import sys
from dataclasses import dataclass
from typing import Callable

import pytest

import test_acceptance
import test_mobility
import test_montecarlo
from maintsim.errors import ParameterError


def block_runners_match_the_reference_runners():
    """The differential check of the block runners, at its first seed and
    one query a replication."""
    test_montecarlo.TestBlockRunners().test_random_trajectories_match_scalar_runners(seed=0, n_queries=1)


def fig4_paths_follow_the_waypoint_count_law():
    """The total-variation check of the waypoint counts of fig4's first 1e5
    paths against the Poisson law."""
    test_mobility.TestGeneration().test_count_pmf_total_variation(test_mobility.ensemble())


@dataclass(frozen=True)
class Defect:
    """``line`` of ``maintsim.<module>.<function>`` becomes ``mutant``, and
    ``check`` must then raise ``error``."""

    name: str
    module: str
    function: str
    line: str
    mutant: str
    check: Callable[[], None]
    error: type = AssertionError


# lambda * 1.05 in a window's waypoint count; sigma * 1.02 in its
# velocities; its last leg given no velocity; one tick fewer in each timer
# grid of the count experiment; MAINT's chord weight q - lo scaled by 1.01;
# one spacing short in the moment check's conditioned draws; s (s + r) for
# s (s - r) in the per-leg form of the sweeps' window error; every chunk
# of the count experiment drawn from chunk 0's stream; every chunk of a
# group of the fold (a sweep's period, a moment check's quantity) drawn
# from the stream of the group's first chunk; and each group's last,
# partial chunk left out of the fold
DEFECTS = (
    Defect(
        "lambda-x1.05",
        "mobility", "_window_durations",
        "rng.poisson(_expected_waypoints(lambda_rate, horizon), rows)",
        "rng.poisson(1.05 * _expected_waypoints(lambda_rate, horizon), rows)",
        test_acceptance.test_criterion_2_constant_ratio_sweep_reaches_asymptote,
    ),
    Defect(
        "sigma-x1.02",
        "mobility", "_window_legs",
        "n_live = int(np.count_nonzero(live))",
        "n_live, sigma = int(np.count_nonzero(live)), 1.02 * sigma",
        test_acceptance.test_criterion_4_moment_formulas_validated_by_monte_carlo,
    ),
    Defect(
        "dropped-last-leg",
        "mobility", "_window_legs",
        "n_live = int(np.count_nonzero(live))",
        "live[np.arange(rows), live.sum(axis=1) - 1] = False; n_live = int(np.count_nonzero(live))",
        test_acceptance.test_criterion_4_moment_formulas_validated_by_monte_carlo,
    ),
    Defect(
        "tick-count-minus-1",
        "montecarlo", "_tick_counts",
        "return n",
        "return n - 1",
        test_acceptance.test_criterion_3_interpolation_dominates_dead_reckoning,
        ParameterError,
    ),
    Defect(
        "chord-weight-x1.01",
        "montecarlo", "run_maint_timer_block",
        "s = q - lo",
        "s = (q - lo) * 1.01",
        block_runners_match_the_reference_runners,
    ),
    Defect(
        "spacing-short-by-one",
        "montecarlo", "_spacings",
        "gaps = rng.standard_exponential((parts, rows))",
        "gaps = rng.standard_exponential((parts - 1, rows))",
        test_acceptance.test_criterion_4_moment_formulas_validated_by_monte_carlo,
    ),
    Defect(
        "per-leg-s-plus-r",
        "montecarlo", "sample_window_mean_errors",
        "tmp = np.subtract(s, r)",
        "tmp = np.add(s, r)",
        test_acceptance.test_criterion_1_period_sweep_matches_theory,
    ),
    Defect(
        "every-chunk-from-chunk-0",
        "montecarlo", "_count_stream",
        "return np.random.default_rng([seed, c])",
        "return np.random.default_rng([seed, 0])",
        fig4_paths_follow_the_waypoint_count_law,
    ),
    Defect(
        "every-chunk-of-a-group-from-its-first",
        "montecarlo", "_fold",
        "return g, work(stream(k), first, min(rows, samples - first))",
        "return g, work(stream(firsts[g]), first, min(rows, samples - first))",
        test_acceptance.test_criterion_2_constant_ratio_sweep_reaches_asymptote,
    ),
    Defect(
        "last-partial-chunk-dropped",
        "montecarlo", "_fold",
        "firsts.append(firsts[-1] + -(-samples // rows))",
        "firsts.append(firsts[-1] + samples // rows)",
        test_acceptance.test_criterion_4_moment_formulas_validated_by_monte_carlo,
    ),
)


def inject(defect: Defect, monkeypatch) -> None:
    """Bind the mutant of ``defect`` wherever its function is bound by name,
    through ``monkeypatch``, so that it is undone after the test."""
    module = importlib.import_module(f"maintsim.{defect.module}")
    original = getattr(module, defect.function)
    source = inspect.getsource(original)
    found = source.count(defect.line)
    assert found == 1, f"{defect.line!r} occurs {found} times in {defect.function}"
    code = compile(
        source.replace(defect.line, defect.mutant),
        inspect.getsourcefile(original),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = {}
    exec(code, vars(module), namespace)
    for bound in list(sys.modules.values()):
        if getattr(bound, "__dict__", {}).get(defect.function) is original:
            monkeypatch.setattr(bound, defect.function, namespace[defect.function])


def _recorded(monkeypatch, module, name: str, results: list) -> None:
    run = getattr(module, name)

    def recording(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, recording)


@pytest.mark.parametrize("defect", DEFECTS, ids=lambda defect: defect.name)
def test_check_fails_on_the_defect(defect, monkeypatch):
    results = []
    for name in ("run_period_sweep", "validate_conditional_moments"):
        _recorded(monkeypatch, test_acceptance, name, results)
    inject(defect, monkeypatch)
    with pytest.raises(defect.error):
        defect.check()
    seen = f", worst |z| {test_montecarlo.max_abs_z(e for rows in results for e in rows):.3g}" if results else ""
    print(f"\n{defect.name}: {defect.check.__name__} fails{seen}")


def test_a_line_that_is_not_there_fails_loudly(monkeypatch):
    stale = Defect("stale", "montecarlo", "_tick_counts", "return n + 0", "return n", lambda: None)
    with pytest.raises(AssertionError, match="occurs 0 times in _tick_counts"):
        inject(stale, monkeypatch)
