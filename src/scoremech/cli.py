"""Command-line front end.

Subcommands::

    scoremech classify  --rule log|quadratic [--grid SPEC] [--out PATH]
    scoremech discount  --rule log|quadratic --config MODEL.json [--out PATH]
    scoremech simulate  --config SCENARIO.json [--samples N] [--seed N] [--out PATH]
    scoremech market simulate --config MARKET.json [--samples N] [--seed N]
                              [--log PATH] [--out PATH]
    scoremech market replay   --log PATH [--out PATH]

Config files are JSON mirroring the domain types (model, schedule, prior).
Every command is deterministic given (config, seed); reports print floats
with 12 significant digits. Trade logs keep full-precision floats because
replay re-verifies costs to 1e-10, which rounding would break.

Exit codes: 0 success, 2 config error (including a precision outside
[1e-100, 1e100], a grid or ``--samples`` beyond its cap and an output path
that cannot be written), 3 numeric
failure, 4 consistency failure (tampered logs, Monte-Carlo disagreement
with the analytic curve).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings

from .beliefs import SignalModel
from .discounting import DiscountSchedule, required_ratio_numeric
from .errors import (
    DiscountIneffectiveError,
    LogConsistencyError,
    MechanismError,
    NumericError,
    ValidationError,
)
from .errors import _field, _finite_list, _json_int, _object, _precision, _real
from .scoring import NormalBelief, ScoringRule
from .truthfulness import TruthfulnessVerdict, classify_log, classify_quadratic

__all__ = ["main", "cmd_classify", "cmd_discount", "cmd_simulate", "cmd_market_simulate",
           "cmd_market_replay"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_NUMERIC = 3
_EXIT_CONSISTENCY = 4

_CSV_SCHEMA = "# scoremech-classify v1"

# Monte-Carlo curve points must match the analytic gain curve within this
# many standard errors for the simulate report's agreement flag.
_AGREEMENT_SIGMAS = 4.0

_DEFAULT_C_GRID = (-4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0)

# Largest market grid a config may ask for: 8 MiB per inventory array.
_MAX_BINS = 2**20

# Most worlds or sessions one run may sample. Every per-sample array grows
# with it: about 104 B per sample for simulate, so at the cap a run peaks
# near 158 MiB for simulate and 178 MiB for market simulate (see README).
_MAX_SAMPLES = 2**20

# Most values one classify grid dimension may hold, and most models a grid
# may sweep; both are checked before any value is built.
_MAX_GRID_VALUES = 10_000
_MAX_GRID_MODELS = 2**18


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(obj):
    """Recursively round floats to 12 significant digits for report JSON."""
    if isinstance(obj, float):
        return float(_fmt(obj)) if math.isfinite(obj) else obj
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {out_path}: {exc}") from exc


def _emit_report(report: dict, out_path: str | None) -> None:
    _emit(json.dumps(_round12(report), sort_keys=True, indent=2) + "\n", out_path)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _object(json.load(fh))
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno})"
        ) from exc
    # Text that is not UTF-8, is nested too deeply or holds an integer of
    # more digits than int() converts, or a root that is not an object.
    except (TypeError, ValueError, RecursionError) as exc:
        raise ValidationError(f"config {path}: {exc}") from exc


def _model_from(record: dict, where: str) -> SignalModel:
    """The model that the config object ``record``, at path ``where``, holds."""
    fields = {
        name: _field(record, name, where, cast, default)
        for name, cast, default in (
            ("tau_a", _precision, None), ("tau_b", _precision, None),
            ("tau_c", functools.partial(_precision, zero_ok=True), 0.0),
            ("rho", _real, 0.0), ("c0", _real, 0.0),
        )
    }
    return SignalModel(**fields)


def _rule_from(name: str) -> ScoringRule:
    aliases = {
        "log": ScoringRule.LOGARITHMIC,
        "logarithmic": ScoringRule.LOGARITHMIC,
        "quadratic": ScoringRule.QUADRATIC,
    }
    try:
        return aliases[name]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown rule {name!r} (use log or quadratic)") from None


def _schedule_from(config: dict, where: str) -> DiscountSchedule:
    """The schedule of a config whose path is ``where``; an absent or null
    one is the constant k = 1."""
    if config.get("schedule") is None:
        return DiscountSchedule(kind="constant", k0=1.0)
    record = _field(config, "schedule", where, _object)
    return DiscountSchedule.from_config(record, f"{where}: schedule")


def _require_samples(samples: int, least: int) -> None:
    if not least <= samples <= _MAX_SAMPLES:
        raise ValidationError(f"--samples must lie in [{least}, {_MAX_SAMPLES}], not {samples}")


def _classify(rule: ScoringRule, model: SignalModel) -> TruthfulnessVerdict:
    if rule is ScoringRule.LOGARITHMIC:
        return classify_log(model)
    return classify_quadratic(model)


# ---------------------------------------------------------------------------
# classify


def _parse_floats(parts: list[str], name: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"{name}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"{name}: values must be finite")
    return values


def _rho(value: float) -> float:
    if not -1.0 <= value <= 1.0:
        raise ValueError(f"must lie in [-1, 1], not {value!r}")
    return value


# Each classify grid dimension: its default values and the check of one value.
_GRID = {
    "rho": ("-0.95:0.95:0.05", _rho),
    "ratio": ("0.25,1,4", _precision),
    "tau_c": ("0,1,100", functools.partial(_precision, zero_ok=True)),
}


def _parse_values(text: str, name: str) -> tuple[float, ...]:
    """Comma list ('0,1,100') or inclusive range ('-0.95:0.95:0.05') of
    finite values, at most ``_MAX_GRID_VALUES`` of them, each passing the
    check of grid dimension ``name``."""
    text = text.strip()
    if ":" not in text:
        parts = text.split(",")
        if len(parts) > _MAX_GRID_VALUES:
            raise ValidationError(f"{name}: at most {_MAX_GRID_VALUES} values are supported")
        values = _parse_floats(parts, name)
    else:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"{name}: range spec must be start:stop:step")
        start, stop, step = _parse_floats(parts, name)
        if step <= 0 or stop < start:
            raise ValidationError(f"{name}: need positive step and stop >= start")
        # Count before building: the span may be inf, which fails the test too.
        span = (stop - start) / step
        if not span < _MAX_GRID_VALUES - 0.5:
            raise ValidationError(f"{name}: at most {_MAX_GRID_VALUES} values are supported")
        values = tuple(round(start + i * step, 12) for i in range(round(span) + 1))
        if len(set(values)) < len(values):
            raise ValidationError(f"{name}: values repeat once rounded to 12 decimals")
    try:
        for value in values:
            _GRID[name][1](value)
    except ValueError as exc:
        raise ValidationError(f"{name} values: {exc}") from exc
    return values


def _parse_grid_spec(spec: str | None) -> dict[str, tuple[float, ...]]:
    """The classify grid of ``spec`` ('rho=a:b:step;ratio=...;tau_c=...'),
    with each dimension it does not name at its default."""
    grid = {}
    for part in (spec or "").split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValidationError(f"grid spec segment {part!r} is not name=values")
        name, text = part.split("=", 1)
        name = name.strip()
        if name not in _GRID:
            raise ValidationError(f"unknown grid dimension {name!r}")
        grid[name] = _parse_values(text, name)
    for name, (default, _) in _GRID.items():
        if name not in grid:
            grid[name] = _parse_values(default, name)
    models = math.prod(map(len, grid.values()))
    if models > _MAX_GRID_MODELS:
        raise ValidationError(
            f"the grid holds {models} models; at most {_MAX_GRID_MODELS} are supported"
        )
    return grid


def cmd_classify(rule: ScoringRule, grid: dict[str, tuple[float, ...]], out: str | None) -> str:
    """Sweep ``grid`` (as ``_parse_grid_spec`` returns it), render the CSV
    and write it to ``out``, or to stdout when that is None."""
    buf = io.StringIO()
    buf.write(_CSV_SCHEMA + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "rule",
            "rho",
            "tau_a",
            "tau_b",
            "tau_c",
            "globally_truthful",
            "locally_truthful",
            "margin",
            "k_min",
        ]
    )
    rule_name = rule.value
    for rho in sorted(grid["rho"]):
        for ratio in sorted(grid["ratio"]):
            for tau_c in sorted(grid["tau_c"]):
                model = SignalModel(tau_a=ratio, tau_b=1.0, tau_c=tau_c, rho=rho)
                verdict = _classify(rule, model)
                try:
                    k_min = _fmt(required_ratio_numeric(rule, model))
                except DiscountIneffectiveError:
                    k_min = "inf"
                writer.writerow(
                    [
                        rule_name,
                        _fmt(rho),
                        _fmt(model.tau_a),
                        _fmt(model.tau_b),
                        _fmt(tau_c),
                        str(verdict.globally_truthful).lower(),
                        str(verdict.locally_truthful).lower(),
                        _fmt(verdict.margin),
                        k_min,
                    ]
                )
    text = buf.getvalue()
    _emit(text, out)
    return text


# ---------------------------------------------------------------------------
# discount


def cmd_discount(rule: ScoringRule, model: SignalModel, out: str | None) -> dict:
    verdict = _classify(rule, model)
    report: dict = {
        "schema": "scoremech-discount v1",
        "rule": rule.value,
        "model": {
            "tau_a": model.tau_a,
            "tau_b": model.tau_b,
            "tau_c": model.tau_c,
            "rho": model.rho,
        },
        "globally_truthful": verdict.globally_truthful,
        "locally_truthful": verdict.locally_truthful,
        "margin": verdict.margin,
    }
    try:
        k_min = required_ratio_numeric(rule, model)
    except DiscountIneffectiveError as exc:
        report["discount_effective"] = False
        report["reason"] = str(exc)
    else:
        report["discount_effective"] = True
        report["k_min_numeric"] = k_min
        if rule is ScoringRule.LOGARITHMIC:
            # Schema v1 prints the log rule's one k_min under both names.
            report["k_min_analytic"] = k_min
    # At |rho| = 1 no shift is safe under the quadratic rule: margin -inf.
    # Within the CLI's precision range nothing else is ever non-finite.
    bad = [
        f"{key} = {report[key]!r}"
        for key in ("margin", "k_min_numeric")
        if key in report and not math.isfinite(report[key])
        and not (key == "margin" and model.degenerate)
    ]
    if bad:
        raise NumericError(f"float64 cannot evaluate this model: {', '.join(bad)}")
    _emit_report(report, out)
    return report


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(config: dict, samples: int, seed: int, out: str | None) -> tuple[dict, bool]:
    """Run the scenario's Monte-Carlo checks; returns (report, agreement).

    The worlds are drawn once and scored once. The gain curve uses all
    ``samples`` of them; the mechanism comparison is the curve's c = 0
    arm, which is what ``game.compare_mechanisms`` of the truthful
    scenario pays, averaged over the first min(samples, 2000) worlds.
    A model with tau_c = 0 is refused by ``game.draw_worlds``.
    """
    # Imported here so that the analytic commands never load numpy or the
    # Monte-Carlo engine.
    import numpy as np

    from . import game

    # A Monte-Carlo standard error needs two worlds.
    _require_samples(samples, 2)
    model = _model_from(_field(config, "model", "scenario", _object, {}), "scenario: model")
    rule = _field(config, "rule", "scenario", _rule_from, ScoringRule.LOGARITHMIC)
    schedule = _schedule_from(config, "scenario")
    c_grid = _field(config, "c_grid", "scenario", _finite_list, _DEFAULT_C_GRID)

    verdict = _classify(rule, model)
    curve = []
    agreement = True
    # Overflow at a huge shift is caught from the non-finite results below.
    with np.errstate(over="ignore", invalid="ignore"):
        worlds = game.draw_worlds(model, seed, samples)
        estimates, mechanisms = game._curve_and_mechanisms(
            model, rule, schedule, c_grid, worlds
        )
    for c, (mc_mean, mc_se) in zip(c_grid, estimates):
        analytic = game.analytic_gain(model, rule, schedule, c)
        gap_scale = max(mc_se, 1e-12)
        z = (mc_mean - analytic) / gap_scale
        if not all(math.isfinite(v) for v in (mc_mean, mc_se, analytic, z)):
            raise NumericError(f"the gain curve is not finite at c = {c}")
        # Every world gained alike where the analytic gain is not 0: the
        # worlds' scale absorbed c in a0 + c, which is no disagreement.
        if mc_se == 0.0 and analytic != 0.0:
            raise NumericError(
                f"the Monte-Carlo curve lost the shift at c = {c}: its standard "
                f"error is 0 while the analytic gain is {_fmt(analytic)}"
            )
        # Written so that a NaN fails the comparison.
        if not abs(z) <= _AGREEMENT_SIGMAS:
            agreement = False
        curve.append(
            {
                "c": c,
                "mc_mean": mc_mean,
                "mc_std_error": mc_se,
                "analytic": analytic,
                "z_vs_analytic": z,
            }
        )
    best = game.best_response(model, rule, schedule)
    report = {
        "schema": "scoremech-simulate v1",
        "rule": rule.value,
        "model": {
            "tau_a": model.tau_a,
            "tau_b": model.tau_b,
            "tau_c": model.tau_c,
            "rho": model.rho,
            "c0": model.c0,
        },
        "schedule": schedule.to_config(),
        "samples": samples,
        "seed": seed,
        "analytic_verdict": {
            "globally_truthful": verdict.globally_truthful,
            "locally_truthful": verdict.locally_truthful,
            "margin": verdict.margin,
        },
        "gain_curve": curve,
        "best_response": {
            "c_star": best.c_star,
            "gain": best.gain,
            "bound_hit": best.bound_hit,
        },
        "mechanisms": mechanisms,
        "agreement": agreement,
    }
    _emit_report(report, out)
    return report, agreement


# ---------------------------------------------------------------------------
# market


def cmd_market_simulate(
    config: dict, sessions: int, seed: int, out: str | None, log_path: str | None
) -> dict:
    # Imported here so that no other command loads the market maker.
    from . import amm, game

    where = "market config"
    model = _model_from(_field(config, "model", where, _object, {}), f"{where}: model")
    # Before the default prior, whose precision tau_c would be refused first.
    game._require_sampleable(model)
    # A null prior, like an absent one, is the model's.
    if config.get("prior") is None:
        prior = NormalBelief(model.c0, model.tau_c)
    else:
        prior_rec = _field(config, "prior", where, _object)
        prior = NormalBelief(
            float(_field(prior_rec, "mean", f"{where}: prior", _real)),
            float(_field(prior_rec, "precision", f"{where}: prior", _precision)),
        )
    schedule = _schedule_from(config, where)
    n_bins = _field(config, "n_bins", where, _json_int, 512)
    if not 2 <= n_bins <= _MAX_BINS:
        raise ValidationError(f"{where}: field 'n_bins' must lie in [2, {_MAX_BINS}], not {n_bins}")
    affine_shift = float(_field(config, "affine_shift", where, _real, 0.0))
    _require_samples(sessions, 1)

    worlds = game.draw_worlds(model, seed, sessions)
    opening = amm.open_market(prior, schedule, n_bins=n_bins, affine_shift=affine_shift)
    batch = amm.simulate_sessions(opening, model, worlds)
    losses = batch.maker_loss.tolist()
    mean_loss = sum(losses) / sessions
    se = 0.0
    if sessions > 1:
        try:
            var = sum((x - mean_loss) ** 2 for x in losses) / (sessions - 1)
        except OverflowError:
            var = math.inf
        se = math.sqrt(var / sessions)
        if not math.isfinite(se):
            raise NumericError("the maker-loss standard error overflows float64")
    # The last session supplies the reported bound and the written log.
    settlement = batch.settlement
    if log_path is not None:
        try:
            amm.write_log(log_path, opening, batch.records, settlement)
        except OSError as exc:
            raise ValidationError(f"cannot write log {log_path}: {exc}") from exc
    report = {
        "schema": "scoremech-market v1",
        "sessions": sessions,
        "seed": seed,
        "n_bins": n_bins,
        "schedule": schedule.to_config(),
        "prior": {"mean": prior.mean, "precision": prior.precision},
        "mean_maker_loss": mean_loss,
        "maker_loss_std_error": se,
        "loss_bound": settlement.loss_bound,
        "bound_satisfied": mean_loss <= settlement.loss_bound,
    }
    _emit_report(report, out)
    return report


def _read_log(log_path: str) -> list[bytes]:
    """The bytes of each of the log's lines; ``amm.replay`` decodes them and
    names the first that is not UTF-8."""
    try:
        with open(log_path, "rb") as fh:
            return fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read log {log_path}: {exc}") from exc


def cmd_market_replay(log_path: str, out: str | None) -> dict:
    from . import amm

    state, records, settlement = amm.replay(_read_log(log_path))
    report: dict = {
        "schema": "scoremech-replay v1",
        "trades": len(records),
        "final_t": state.t,
        "total_collected": sum(r.cost for r in records),
    }
    if settlement is not None:
        report["settlement"] = amm.settlement_to_json(settlement)["settlement"]
    _emit_report(report, out)
    return report


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoremech",
        description="Strategy-proof prediction mechanisms: classification, "
        "discounting, simulation, and a discounted log-score market maker.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="sweep truthfulness verdicts to CSV")
    p.add_argument("--rule", default="log")
    p.add_argument("--grid", default=None, help="rho=a:b:step;ratio=...;tau_c=...")
    p.add_argument("--out", default=None)

    p = sub.add_parser("discount", help="required discount ratio for one model")
    p.add_argument("--rule", default="log")
    p.add_argument("--config", required=True, help="JSON file with a model record")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="Monte-Carlo check of a scenario file")
    p.add_argument("--config", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("market", help="simulate or replay a market session")
    msub = p.add_subparsers(dest="market_cmd", required=True)
    ps = msub.add_parser("simulate")
    ps.add_argument("--config", default=None)
    ps.add_argument("--samples", type=int, default=1000, help="number of sessions")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--log", default=None, help="write the last session's trade log")
    ps.add_argument("--out", default=None)
    pr = msub.add_parser("replay")
    pr.add_argument("--log", required=True)
    pr.add_argument("--out", default=None)

    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as the commands print it: one line, without the source."""
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Only the printed form changes: callers that record warnings get them.
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return _run(args)
    finally:
        warnings.formatwarning = formatwarning


def _run(args: argparse.Namespace) -> int:
    try:
        if args.cmd == "classify":
            grid = _parse_grid_spec(args.grid)
            cmd_classify(_rule_from(args.rule), grid, args.out)
            return _EXIT_OK
        if args.cmd == "discount":
            record = _load_json(args.config)
            # A bare model record is the model.
            model = _model_from(_field(record, "model", "discount config", _object, record),
                                "discount config: model")
            cmd_discount(_rule_from(args.rule), model, args.out)
            return _EXIT_OK
        if args.cmd == "simulate":
            config = _load_json(args.config)
            _, agreement = cmd_simulate(config, args.samples, args.seed, args.out)
            return _EXIT_OK if agreement else _EXIT_CONSISTENCY
        # argparse requires a command, so this one is market.
        if args.market_cmd == "replay":
            cmd_market_replay(args.log, args.out)
            return _EXIT_OK
        config = _load_json(args.config) if args.config else {}
        cmd_market_simulate(config, args.samples, args.seed, args.out, args.log)
        return _EXIT_OK
    except LogConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return _EXIT_CONSISTENCY
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except MechanismError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
