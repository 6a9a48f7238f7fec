"""Command-line interface: exit codes, report schemas, determinism."""

import csv
import io
import json

import pytest

from scoremech import (
    NormalBelief,
    OutcomeGrid,
    ScoringRule,
    binned_self_score,
    nonpositivity_shift,
)
from scoremech.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0] == "# scoremech-classify v1"
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def test_classify_default_grid(capsys):
    code, out, _ = run(["classify"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 39 * 3 * 3
    # The sweep is deterministic byte for byte.
    code2, out2, _ = run(["classify"], capsys)
    assert code2 == 0 and out2 == out


def test_classify_boundary_flip(capsys):
    code, out, _ = run(
        ["classify", "--grid", "rho=-0.55,-0.5;ratio=1;tau_c=0"], capsys)
    assert code == 0
    rows = parse_csv(out)
    by_rho = {row["rho"]: row for row in rows}
    assert by_rho["-0.55"]["globally_truthful"] == "false"
    assert by_rho["-0.5"]["globally_truthful"] == "true"
    assert by_rho["-0.5"]["margin"] == "0"
    assert float(by_rho["-0.55"]["k_min"]) > 1.0
    assert float(by_rho["-0.5"]["k_min"]) == 1.0


def test_classify_degenerate_rho_reports_inf(capsys):
    code, out, _ = run(
        ["classify", "--grid", "rho=-1,1;ratio=4;tau_c=1"], capsys)
    assert code == 0
    for row in parse_csv(out):
        assert row["k_min"] == "inf"
        assert row["globally_truthful"] == "false"


def test_classify_quadratic_never_global(capsys):
    code, out, _ = run(
        ["classify", "--rule", "quadratic",
         "--grid", "rho=-0.5:0.5:0.25;ratio=1;tau_c=0,1"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert rows and all(r["globally_truthful"] == "false" for r in rows)
    assert any(r["locally_truthful"] == "true" for r in rows)


def test_classify_out_file(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, out, _ = run(
        ["classify", "--grid", "rho=0;ratio=1;tau_c=0", "--out", str(path)],
        capsys)
    assert code == 0 and out == ""
    assert path.read_text().startswith("# scoremech-classify v1")


def test_classify_bad_inputs(capsys):
    assert run(["classify", "--rule", "brier"], capsys)[0] == 2
    assert run(["classify", "--grid", "bogus"], capsys)[0] == 2
    assert run(["classify", "--grid", "rho=2"], capsys)[0] == 2
    assert run(["classify", "--grid", "rho=0:1:0"], capsys)[0] == 2


def write_config(tmp_path, record, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def test_discount_report(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 0.0, "rho": -0.8}})
    code, out, _ = run(["discount", "--config", cfg], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "scoremech-discount v1"
    assert report["discount_effective"] is True
    assert report["k_min_analytic"] == pytest.approx(2.5, rel=1e-12)
    assert report["k_min_numeric"] == pytest.approx(2.5, rel=1e-6)
    assert report["globally_truthful"] is False


def test_discount_ineffective(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 0.5, "rho": 1.0}})
    code, out, _ = run(["discount", "--config", cfg], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["discount_effective"] is False
    assert "reason" in report
    assert "k_min_numeric" not in report


def test_discount_missing_config(capsys):
    code, _, err = run(["discount", "--config", "/nonexistent.json"], capsys)
    assert code == 2
    assert "config error" in err


def test_simulate_agreement(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0, "rho": -0.8},
        "rule": "log",
        "schedule": {"kind": "constant", "k0": 1.0},
        "c_grid": [-1.0, 0.5, 2.0],
    })
    code, out, _ = run(
        ["simulate", "--config", cfg, "--samples", "4000", "--seed", "7"],
        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "scoremech-simulate v1"
    assert report["agreement"] is True
    assert len(report["gain_curve"]) == 3
    for point in report["gain_curve"]:
        assert abs(point["z_vs_analytic"]) <= 4.0
    assert report["analytic_verdict"]["globally_truthful"] is False
    assert report["best_response"]["gain"] > 0.0
    assert set(report["mechanisms"]) == {"group", "single", "discounted_msr"}


def test_simulate_rejects_zero_noise(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 0.0, "rho": -0.8}})
    code, _, err = run(["simulate", "--config", cfg], capsys)
    assert code == 2
    assert "tau_c" in err


def test_simulate_malformed_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(["simulate", "--config", str(path)], capsys)
    assert code == 2
    assert "not valid JSON" in err

    cfg = write_config(tmp_path, {"model": {"tau_a": 1.0}})
    assert run(["simulate", "--config", cfg], capsys)[0] == 2

    cfg = write_config(tmp_path, {
        "model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0}, "rule": ["log"]})
    assert run(["simulate", "--config", cfg], capsys)[0] == 2


def market_config(tmp_path):
    return write_config(tmp_path, {
        "model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0, "rho": 0.0},
        "prior": {"mean": 0.0, "precision": 1.0},
        "schedule": {"kind": "constant", "k0": 1.0},
        "n_bins": 256,
    }, name="market.json")


def test_market_simulate_and_replay(tmp_path, capsys):
    cfg = market_config(tmp_path)
    log = tmp_path / "session.jsonl"
    code, out, _ = run(
        ["market", "simulate", "--config", cfg, "--samples", "50",
         "--seed", "3", "--log", str(log)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "scoremech-market v1"
    assert report["sessions"] == 50
    assert report["bound_satisfied"] is True
    assert report["mean_maker_loss"] <= report["loss_bound"]

    code, out, _ = run(["market", "replay", "--log", str(log)], capsys)
    assert code == 0
    replayed = json.loads(out)
    assert replayed["schema"] == "scoremech-replay v1"
    assert replayed["trades"] == 3
    assert "settlement" in replayed


def test_market_replay_detects_tampering(tmp_path, capsys):
    cfg = market_config(tmp_path)
    log = tmp_path / "session.jsonl"
    code, _, _ = run(
        ["market", "simulate", "--config", cfg, "--samples", "2",
         "--log", str(log)], capsys)
    assert code == 0
    lines = log.read_text().splitlines()
    record = json.loads(lines[1])
    record["cost"] += 1e-6
    lines[1] = json.dumps(record, sort_keys=True)
    log.write_text("\n".join(lines) + "\n")
    code, _, err = run(["market", "replay", "--log", str(log)], capsys)
    assert code == 4
    assert "consistency error" in err


# Malformed but parseable logs: (line named in the error, edit of the parsed
# lines of a three-trade log with a settlement on line 5).
MALFORMED_LOGS = {
    "record_number_not_int": (2, lambda o: o[1].update(i="x")),
    "record_not_object": (3, lambda o: o.__setitem__(2, [1, 2])),
    "header_not_object": (1, lambda o: o.__setitem__(0, [1, 2])),
    "t0_not_int": (1, lambda o: o[0].update(t0="x")),
    "affine_shift_not_number": (1, lambda o: o[0].update(affine_shift="x")),
    "outcome_malformed": (5, lambda o: o[4]["settlement"].update(outcome="x")),
    "outcome_missing": (5, lambda o: o[4]["settlement"].pop("outcome")),
    "s0_one_short": (1, lambda o: o[0]["s0"].pop()),
    "post_one_short": (2, lambda o: o[1]["post"].pop()),
    "counter_fractional": (2, lambda o: o[1].update(t=1.5)),
    "record_number_out_of_sequence": (3, lambda o: o[2].update(i=5)),
    "cost_nan": (2, lambda o: o[1].update(cost=float("nan"))),
    "outcome_nan": (5, lambda o: o[4]["settlement"].update(outcome=float("nan"))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LOGS))
def test_market_replay_malformed_log_exits_4(case, tmp_path, capsys):
    line, edit = MALFORMED_LOGS[case]
    cfg = market_config(tmp_path)
    log = tmp_path / "session.jsonl"
    code, _, _ = run(
        ["market", "simulate", "--config", cfg, "--samples", "2",
         "--log", str(log)], capsys)
    assert code == 0
    objs = [json.loads(text) for text in log.read_text().splitlines()]
    edit(objs)
    log.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    code, _, err = run(["market", "replay", "--log", str(log)], capsys)
    assert code == 4
    assert err.startswith("consistency error:") and f"line {line}:" in err
    assert "Traceback" not in err


def test_market_loss_bound_holds_across_a_reset(tmp_path, capsys):
    # The reset at counter 3 raises the weight to 10, so the last belief's
    # score enters the maker's loss at k(3) = 10 while the prior's enters
    # at k(0) = 1; a bound that weights the shift by k(0) alone reads 3.15.
    shift = nonpositivity_shift(ScoringRule.LOGARITHMIC, 201.0)
    cfg = write_config(tmp_path, {
        "model": {"tau_a": 100.0, "tau_b": 100.0, "tau_c": 1.0, "rho": 0.0},
        "schedule": {"kind": "piecewise", "k0": 1.0, "resets": [[3, 10.0]]},
        "n_bins": 512,
        "affine_shift": shift,
    })
    with pytest.warns(RuntimeWarning, match="clipped"):
        code, out, _ = run(
            ["market", "simulate", "--config", cfg, "--samples", "500",
             "--seed", "0"], capsys)
    assert code == 0
    report = json.loads(out)
    prior = NormalBelief(mean=0.0, precision=1.0)
    prior_score = binned_self_score(prior, OutcomeGrid.from_prior(prior, 512))
    assert report["mean_maker_loss"] > shift - prior_score
    assert report["loss_bound"] == pytest.approx(10.0 * shift - prior_score, rel=1e-11)
    assert report["bound_satisfied"] is True


def test_market_simulate_determinism(tmp_path, capsys):
    cfg = market_config(tmp_path)
    args = ["market", "simulate", "--config", cfg, "--samples", "20",
            "--seed", "11"]
    first = run(args, capsys)
    second = run(args, capsys)
    assert first == second and first[0] == 0


def test_market_rejects_zero_noise(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 0.0, "rho": 0.0},
        "prior": {"mean": 0.0, "precision": 1.0},
    })
    code, _, _ = run(["market", "simulate", "--config", cfg], capsys)
    assert code == 2


def test_market_prior_missing_field_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0},
        "prior": {"mu": 0}})
    code, _, err = run(["market", "simulate", "--config", cfg], capsys)
    assert code == 2
    assert "'mean'" in err


def test_market_malformed_n_bins_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0},
        "n_bins": "x"})
    code, _, err = run(["market", "simulate", "--config", cfg], capsys)
    assert code == 2
    assert "'n_bins'" in err


def test_classify_malformed_range_is_config_error(capsys):
    code, _, err = run(["classify", "--grid", "rho=a:b:c"], capsys)
    assert code == 2
    assert "rho" in err


def test_discount_list_config_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, [{"tau_a": 1.0, "tau_b": 1.0}])
    code, _, err = run(["discount", "--config", cfg], capsys)
    assert code == 2
    assert "JSON object" in err
