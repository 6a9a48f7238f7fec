"""Shared fixtures: the canonical model grid, frozen benchmark models, and a
terminal-summary hook that prints one line per acceptance criterion."""

from __future__ import annotations

import math

from hypothesis import HealthCheck, settings

from scoremech import SignalModel

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Canonical sweep: rho from -0.95 to 0.95 in steps of 0.05, three precision
# ratios tau_a/tau_b with tau_b = 1, three prior precisions. 351 models.
RHO_GRID = tuple(round(-0.95 + 0.05 * i, 2) for i in range(39))
RATIO_GRID = (0.25, 1.0, 4.0)
TAU_C_GRID = (0.0, 1.0, 100.0)


def canonical_models() -> list[SignalModel]:
    return [
        SignalModel(tau_a=ratio, tau_b=1.0, tau_c=tau_c, rho=rho)
        for rho in RHO_GRID
        for ratio in RATIO_GRID
        for tau_c in TAU_C_GRID
    ]


def saturating_shift(model: SignalModel) -> float:
    """A shift past both exponential knees, scaled to the model.

    At this c both quadratic-rule divergence brackets sit within exp(-41)
    of their large-shift limit of -1.
    """
    return 2.0 * max(math.sqrt(41.0 / model.tau_single) / abs(model.alpha_g),
                     math.sqrt(41.0 / model.tau_pool) / abs(model.alpha_h))


# Twelve frozen benchmark models, six truthful and six untruthful under the
# log-rule classifier, all with a weak tau_c = 0.01 prior so worlds can be
# sampled. Chosen with classification margins away from zero; the weakest of
# them separates from zero gain at |z| ~ 44 with n = 2e4 draws, so the 3-sigma
# acceptance gate at n = 1e5 has two orders of magnitude of headroom.
BENCHMARK_TRUTHFUL = (
    SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.01, rho=0.0),
    SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.01, rho=-0.3),
    SignalModel(tau_a=2.0, tau_b=1.0, tau_c=0.01, rho=0.4),
    SignalModel(tau_a=0.5, tau_b=1.0, tau_c=0.01, rho=-0.2),
    SignalModel(tau_a=4.0, tau_b=2.0, tau_c=0.01, rho=0.3),
    SignalModel(tau_a=1.0, tau_b=4.0, tau_c=0.01, rho=0.5),
)
BENCHMARK_UNTRUTHFUL = (
    SignalModel(tau_a=3.0, tau_b=1.0, tau_c=0.01, rho=0.7),
    SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.01, rho=-0.7),
    SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.01, rho=-0.9),
    SignalModel(tau_a=2.0, tau_b=1.0, tau_c=0.01, rho=-0.8),
    SignalModel(tau_a=0.25, tau_b=1.0, tau_c=0.01, rho=0.9),
    SignalModel(tau_a=1.0, tau_b=2.0, tau_c=0.01, rho=-0.6),
)

_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect a criterion result line for the end-of-run summary."""
    _acceptance_lines.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
