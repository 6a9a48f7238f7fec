"""Command-line interface: exit codes, report schemas, determinism."""

import base64
import contextlib
import copy
import csv
import io
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from log_versions import as_version_2, write_v2_log
from scoremech import (
    DiscountSchedule,
    NormalBelief,
    NumericError,
    OutcomeGrid,
    ScoringRule,
    SignalModel,
    binned_self_score,
    game,
    nonpositivity_shift,
    open_market,
    required_ratio_log,
    settle,
    trade,
    write_log,
)
from scoremech.cli import _DEFAULT_C_GRID, _MAX_SAMPLES, cmd_discount, cmd_simulate, main

FIXTURES = Path(__file__).resolve().parent / "fixtures"


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
    # Schema v1 prints the log rule's one k_min under both names.
    assert report["k_min_analytic"] == report["k_min_numeric"]
    assert report["globally_truthful"] is False


def test_discount_refuses_a_report_that_is_not_finite():
    # Outside the CLI's precision range a library model can still reach
    # cmd_discount; its margin overflows and no report is written.
    model = SignalModel(tau_a=1e300, tau_b=1e-300, tau_c=1.0, rho=0.5)
    with pytest.raises(NumericError, match="margin = -inf"):
        cmd_discount(ScoringRule.LOGARITHMIC, model, os.devnull)


@pytest.mark.parametrize("field", ("tau_a", "tau_b", "tau_c"))
def test_the_precision_range_is_inclusive(field, tmp_path, capsys):
    # A model precision may be 1e-100 or 1e100 but nothing beyond, and
    # tau_c may also be 0; each command reads the model alike.
    for value, code in ((1e-100, 0), (1e100, 0), (np.nextafter(1e-100, 0.0), 2),
                        (np.nextafter(1e100, math.inf), 2), (0.0, 0 if field == "tau_c" else 2),
                        (-1.0, 2)):
        model = {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 0.0, "rho": -0.8, field: float(value)}
        got, out, err = run(["discount", "--config", write_config(tmp_path, model)], capsys)
        assert got == code, (value, err)
        if code == 2:
            assert out == "" and f"field {field!r}" in err and "[1e-100, 1e+100]" in err


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


def test_simulate_non_finite_curve_is_numeric_error(tmp_path, capsys):
    # The log gain at c = 1e308 overflows; no agreement may be reported.
    cfg = write_config(tmp_path, {
        "model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0, "rho": -0.8},
        "c_grid": [1e308]})
    code, out, err = run(["simulate", "--config", cfg, "--samples", "100"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("numeric error:") and "1e+308" in err


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


def inventory_values(text):
    """The numbers that a version-2 inventory's text holds."""
    raw = base64.b64decode(text)
    return list(struct.unpack(f"<{len(raw) // 8}d", raw))


def edit_inventory(obj, key, edit):
    """Apply ``edit`` to the bytes of the version-2 inventory ``obj[key]``."""
    raw = edit(base64.b64decode(obj[key]))
    obj[key] = base64.b64encode(raw).decode("ascii")


def as_version_1(objs):
    """The parsed lines of a version-2 log as version 1 wrote them:
    inventories as JSON lists of numbers."""
    objs[0]["version"] = 1
    for obj in objs:
        for key in ("s0", "pre", "post"):
            if key in obj:
                obj[key] = inventory_values(obj[key])
    return objs


def spelled_as_strings(obj, key):
    """Give the entries of the version-1 inventory ``obj[key]`` as JSON
    strings, which numpy would parse."""
    obj[key] = [repr(v) for v in obj[key]]


NAN_BITS = struct.pack("<d", float("nan"))
INF_BITS = struct.pack("<d", float("-inf"))

# Malformed logs: (line named in the error, edit of the parsed lines of a
# three-trade log with a settlement on line 5). An edit may replace a line
# by raw bytes, which are written as they are. The trade after the
# settlement is otherwise valid: numbered in sequence, a zero-cost no-op
# from the final inventory.
MALFORMED_LOGS = {
    "record_number_not_int": (2, lambda o: o[1].update(i="x")),
    "record_not_object": (3, lambda o: o.__setitem__(2, [1, 2])),
    "header_not_object": (1, lambda o: o.__setitem__(0, [1, 2])),
    "t0_not_int": (1, lambda o: o[0].update(t0="x")),
    "affine_shift_not_number": (1, lambda o: o[0].update(affine_shift="x")),
    "outcome_malformed": (5, lambda o: o[4]["settlement"].update(outcome="x")),
    "outcome_missing": (5, lambda o: o[4]["settlement"].pop("outcome")),
    "s0_one_short": (1, lambda o: edit_inventory(o[0], "s0", lambda b: b[:-8])),
    "post_one_short": (2, lambda o: edit_inventory(o[1], "post", lambda b: b[:-8])),
    "counter_fractional": (2, lambda o: o[1].update(t=1.5)),
    "record_number_out_of_sequence": (3, lambda o: o[2].update(i=5)),
    "cost_nan": (2, lambda o: o[1].update(cost=float("nan"))),
    "outcome_nan": (5, lambda o: o[4]["settlement"].update(outcome=float("nan"))),
    "settlement_tampered_loss_and_payee": (5, lambda o: o[4]["settlement"].update(
        maker_loss=123.0, payouts={"mallory": 1e6})),
    "settlement_duplicated": (6, lambda o: o.append(o[4])),
    "header_version_4": (1, lambda o: o[0].update(version=4)),
    "trade_after_settlement": (6, lambda o: o.append(dict(
        o[3], i=3, trader="mallory", pre=o[3]["post"], cost=0.0))),
    "outcome_bin_tampered": (5, lambda o: o[4]["settlement"].update(
        outcome_bin=o[4]["settlement"]["outcome_bin"] + 1)),
    "line_not_utf8": (3, lambda o: o.__setitem__(
        2, json.dumps(o[2]).encode().replace(b'"bob"', b'"b\xffb"'))),
    "line_nested_too_deeply": (4, lambda o: o.__setitem__(3, b"[" * 100000 + b"]" * 100000)),
    "trader_not_string": (2, lambda o: o[1].update(trader=5)),
    "counter_boolean": (2, lambda o: o[1].update(t=True)),
    "record_number_boolean": (2, lambda o: o[1].update(i=False)),
    "record_number_missing": (2, lambda o: o[1].pop("i")),
    "t0_boolean": (1, lambda o: o[0].update(t0=False)),
    "clipped_bins_boolean": (2, lambda o: o[1].update(clipped_bins=True)),
    "clipped_bins_negative": (2, lambda o: o[1].update(clipped_bins=-4)),
    "header_reset_counter_fractional": (1, lambda o: o[0]["schedule"].update(
        resets=[[1.5, 1.0]])),
    "header_reset_entry_short": (1, lambda o: o[0]["schedule"].update(resets=[[1]])),
    "header_k0_boolean": (1, lambda o: o[0]["schedule"].update(k0=True)),
}

# Fields that must be JSON numbers, given as something else: (line and field
# named in the error, edit as above). Unchecked, most of them read as
# numbers (a boolean as 0 or 1, a string through float() or numpy), and an
# unsettled log holding one replays without error.
NOT_NUMBERS = {
    "cost_string": (2, "cost", lambda o: o[1].update(cost="0")),
    "cost_boolean": (3, "cost", lambda o: o[2].update(cost=False)),
    "affine_shift_boolean": (1, "affine_shift", lambda o: o[0].update(affine_shift=True)),
    "prior_mean_boolean": (1, "mean", lambda o: o[0]["prior"].update(mean=False)),
    "prior_precision_boolean": (1, "precision", lambda o: o[0]["prior"].update(precision=True)),
    "prior_precision_string": (1, "precision", lambda o: o[0]["prior"].update(precision="1.0")),
    "grid_lo_string": (1, "lo", lambda o: o[0]["grid"].update(lo=str(o[0]["grid"]["lo"]))),
    "grid_hi_boolean": (1, "hi", lambda o: o[0]["grid"].update(hi=True)),
    "v1_post_strings": (2, "post", lambda o: spelled_as_strings(as_version_1(o)[1], "post")),
    "v1_pre_strings": (3, "pre", lambda o: spelled_as_strings(as_version_1(o)[2], "pre")),
    "v1_s0_boolean_entry": (1, "s0", lambda o: as_version_1(o)[0]["s0"].__setitem__(0, True)),
}
MALFORMED_LOGS.update({case: (line, edit) for case, (line, _, edit) in NOT_NUMBERS.items()})

# Fields of another JSON type than the one replay reads, which replay
# once refused with Python's own exception text (such as "'int' object is
# not subscriptable"): (line and field named in the error, edit as above).
MISTYPED_LOG_FIELDS = {
    "grid_list": (1, "grid", lambda o: o[0].update(grid=[1, 2])),
    "grid_string": (1, "grid", lambda o: o[0].update(grid="x")),
    "grid_n_float": (1, "n", lambda o: o[0]["grid"].update(n=float(o[0]["grid"]["n"]))),
    "grid_n_string": (1, "n", lambda o: o[0]["grid"].update(n=str(o[0]["grid"]["n"]))),
    "grid_n_boolean": (1, "n", lambda o: o[0]["grid"].update(n=True)),
    "grid_unknown_key": (1, "grid", lambda o: o[0]["grid"].update(step=0.1)),
    "grid_key_missing": (1, "n", lambda o: o[0]["grid"].pop("n")),
    "prior_number": (1, "prior", lambda o: o[0].update(prior=5)),
    "schedule_list": (1, "schedule", lambda o: o[0].update(schedule=[o[0]["schedule"]])),
    "t0_float": (1, "t0", lambda o: o[0].update(t0=0.0)),
    "counter_float": (2, "t", lambda o: o[1].update(t=float(o[1]["t"]))),
    "record_number_float": (2, "i", lambda o: o[1].update(i=0.0)),
    "record_number_string": (3, "i", lambda o: o[2].update(i="1")),
    "clipped_bins_float": (3, "clipped_bins", lambda o: o[2].update(clipped_bins=0.0)),
    "settlement_number": (5, "settlement", lambda o: o[4].update(settlement=5)),
}
MALFORMED_LOGS.update(
    {case: (line, edit) for case, (line, _, edit) in MISTYPED_LOG_FIELDS.items()})


# Version-2 inventories that replay refuses: (line and field named in the
# error, edit as above).
MALFORMED_INVENTORIES = {
    "s0_not_base64": (1, "s0", lambda o: o[0].update(s0="*" + o[0]["s0"][1:])),
    "pre_padding_missing": (3, "pre", lambda o: o[2].update(pre=o[2]["pre"].rstrip("="))),
    "post_one_long": (2, "post", lambda o: edit_inventory(o[1], "post", lambda b: b + b[:8])),
    "pre_one_short": (4, "pre", lambda o: edit_inventory(o[3], "pre", lambda b: b[8:])),
    "s0_nan_bits": (1, "s0", lambda o: edit_inventory(o[0], "s0", lambda b: NAN_BITS + b[8:])),
    "post_inf_bits": (3, "post", lambda o: edit_inventory(o[2], "post",
                                                          lambda b: b[:-8] + INF_BITS)),
    "post_json_list": (2, "post", lambda o: o[1].update(post=inventory_values(o[1]["post"]))),
}


def replay_edited_log(edit, tmp_path, capsys, version=2):
    """Exit code and stderr of replaying a three-trade log after ``edit``:
    the log ``market simulate`` writes, or for ``version`` 2 the same
    session as version 2 wrote it."""
    cfg = market_config(tmp_path)
    log = tmp_path / "session.jsonl"
    code, _, _ = run(
        ["market", "simulate", "--config", cfg, "--samples", "2",
         "--log", str(log)], capsys)
    assert code == 0
    lines = log.read_text().splitlines()
    if version == 2:
        lines = as_version_2(lines)
    objs = [json.loads(text) for text in lines]
    edit(objs)
    log.write_bytes(b"".join(
        (obj if isinstance(obj, bytes) else json.dumps(obj).encode()) + b"\n" for obj in objs))
    code, _, err = run(["market", "replay", "--log", str(log)], capsys)
    assert "Traceback" not in err
    return code, err


@pytest.mark.parametrize("case", sorted(MALFORMED_LOGS))
def test_market_replay_malformed_log_exits_4(case, tmp_path, capsys):
    line, edit = MALFORMED_LOGS[case]
    code, err = replay_edited_log(edit, tmp_path, capsys)
    assert code == 4
    assert err.startswith("consistency error:") and f"line {line}:" in err


@pytest.mark.parametrize("settled", (True, False), ids=("settled", "unsettled"))
@pytest.mark.parametrize("case", sorted(NOT_NUMBERS))
def test_market_replay_names_a_field_that_is_not_a_number(case, settled, tmp_path, capsys):
    line, field, edit = NOT_NUMBERS[case]

    def edit_log(objs):
        edit(objs)
        if not settled:
            objs.pop()

    code, err = replay_edited_log(edit_log, tmp_path, capsys)
    assert code == 4
    assert err.startswith("consistency error:") and f"line {line}: field {field!r}" in err


def test_market_replay_names_the_first_faulty_line(tmp_path, capsys):
    # Costs are verified a block at a time, after the fields of later lines
    # are read; record 1's trader must not hide record 0's cost.
    def edit(objs):
        objs[1]["cost"] += 1e-6
        objs[2]["trader"] = 5

    code, err = replay_edited_log(edit, tmp_path, capsys)
    assert code == 4
    assert err.startswith("consistency error: record 0: line 2: logged cost")


@pytest.mark.parametrize("case", sorted(MISTYPED_LOG_FIELDS))
def test_market_replay_names_a_mistyped_field(case, tmp_path, capsys):
    line, field, edit = MISTYPED_LOG_FIELDS[case]
    code, err = replay_edited_log(edit, tmp_path, capsys, version=3)
    assert code == 4
    assert err.startswith("consistency error:") and f"line {line}: field {field!r}" in err


@pytest.mark.parametrize("case", sorted(MALFORMED_INVENTORIES))
def test_market_replay_malformed_inventory_exits_4(case, tmp_path, capsys):
    line, field, edit = MALFORMED_INVENTORIES[case]
    code, err = replay_edited_log(edit, tmp_path, capsys)
    assert code == 4
    assert err.startswith("consistency error:") and f"line {line}: field {field!r}" in err


# Version-3 belief trades that replay refuses: (line and field named in the
# error, edit of the parsed lines of the three-trade log as market simulate
# writes it).
MALFORMED_BELIEFS = {
    "mean_nan": (2, "mean", lambda o: o[1]["belief"].update(mean=float("nan"))),
    "mean_infinite": (3, "mean", lambda o: o[2]["belief"].update(mean=float("-inf"))),
    "mean_string": (2, "mean", lambda o: o[1]["belief"].update(mean="0.5")),
    "mean_missing": (4, "mean", lambda o: o[3]["belief"].pop("mean")),
    "precision_zero": (3, "precision", lambda o: o[2]["belief"].update(precision=0.0)),
    "precision_negative": (4, "precision", lambda o: o[3]["belief"].update(precision=-3.0)),
    "precision_boolean": (2, "precision", lambda o: o[1]["belief"].update(precision=True)),
    "belief_not_object": (3, "belief", lambda o: o[2].update(belief=[0.0, 1.0])),
    "belief_and_post": (2, "post", lambda o: o[1].update(post=o[0]["s0"])),
    "neither_belief_nor_post": (3, "post", lambda o: o[2].pop("belief")),
    "clipped_bins_wrong": (3, "clipped_bins", lambda o: o[2].update(clipped_bins=1)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BELIEFS))
def test_market_replay_malformed_belief_exits_4(case, tmp_path, capsys):
    line, field, edit = MALFORMED_BELIEFS[case]
    code, err = replay_edited_log(edit, tmp_path, capsys, version=3)
    assert code == 4
    assert err.startswith(f"consistency error: record {line - 2}: line {line}: ")
    assert f"field {field!r}" in err


def test_versions_2_and_3_of_a_session_replay_alike(tmp_path, capsys):
    cfg = market_config(tmp_path)
    log, v2_log = tmp_path / "session.jsonl", tmp_path / "session_v2.jsonl"
    assert run(["market", "simulate", "--config", cfg, "--samples", "2",
                "--log", str(log)], capsys)[0] == 0
    lines = log.read_text().splitlines()
    assert all("belief" in json.loads(line) for line in lines[1:4])
    v2_log.write_text("".join(line + "\n" for line in as_version_2(lines)))
    reports = []
    for path in (log, v2_log):
        out = tmp_path / f"{path.stem}.replay.json"
        assert run(["market", "replay", "--log", str(path), "--out", str(out)], capsys)[0] == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


# Version-1 logs (inventories as JSON lists of numbers) and their replay
# reports, written by the code before version 2: a market simulate session
# under a piecewise schedule with a reset, settled; three belief trades,
# unsettled; and the first log with record 1's pre respelled, each number
# given one more trailing zero (1.0 as 1.00).
V1_LOGS = ("market_v1_reset_settled", "market_v1_unsettled", "market_v1_respelled_pre")
V1_RESET_MARKET = {
    "model": {"tau_a": 2.0, "tau_b": 0.7, "tau_c": 0.5, "rho": -0.4, "c0": 0.3},
    "schedule": {"kind": "piecewise", "k0": 1.0, "resets": [[2, 0.5]]},
    "n_bins": 128, "affine_shift": 0.25,
}


@pytest.mark.parametrize("name", V1_LOGS)
def test_market_replay_of_version_1_logs_is_unchanged(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    log = FIXTURES / f"{name}.jsonl"
    assert run(["market", "replay", "--log", str(log), "--out", str(out)], capsys)[0] == 0
    assert out.read_bytes() == (FIXTURES / f"{name}.replay.json").read_bytes()

    lines = log.read_text().splitlines()
    record = json.loads(lines[2])
    record["cost"] += 1e-6
    lines[2] = json.dumps(record, sort_keys=True)
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    code, _, err = run(["market", "replay", "--log", str(tampered)], capsys)
    assert code == 4
    assert err.startswith("consistency error: record 1: line 3: logged cost")


def test_version_2_log_carries_the_version_1_log(tmp_path, capsys):
    # The same session written today as version 2 wrote it, from the records
    # that the replay of today's log rebuilds, with its inventories put back
    # as JSON lists, is the version-1 fixture byte for byte.
    cfg = write_config(tmp_path, V1_RESET_MARKET)
    log = tmp_path / "session.jsonl"
    assert run(["market", "simulate", "--config", cfg, "--samples", "1", "--seed", "3",
                "--log", str(log)], capsys)[0] == 0
    objs = [json.loads(line) for line in as_version_2(log.read_text().splitlines())]
    assert objs[0]["version"] == 2
    as_version_1(objs)
    v1_text = "".join(json.dumps(obj, sort_keys=True) + "\n" for obj in objs)
    assert v1_text == (FIXTURES / "market_v1_reset_settled.jsonl").read_text()


# A version-2 log and its replay report, written by the code before replay
# verified costs in blocks: 40 belief trades by five traders on 64 bins,
# counters advancing by 1 or 2, a reset at counter 21 and a settlement. The
# version-3 log of the same session, and its replay report, which is the
# version-2 log's byte for byte.
V2_LOG = "market_v2_multi_trader_settled"
V3_LOG = "market_v3_multi_trader_settled"


def multi_trader_session():
    """The opening state, records and settlement of the fixture session."""
    prior = NormalBelief(mean=0.3, precision=0.8)
    schedule = DiscountSchedule(kind="piecewise", k0=1.0, resets=((21, 0.6),))
    rng = random.Random(41)
    opening = state = open_market(prior, schedule, n_bins=64, affine_shift=0.25)
    records = []
    for _ in range(40):
        belief = NormalBelief(prior.mean + rng.gauss(0.0, 1.0) * prior.sigma,
                              prior.precision * math.exp(rng.uniform(0.0, math.log(30.0))))
        with warnings.catch_warnings():
            # Sharp beliefs clip far-tail bins, which the log records.
            warnings.simplefilter("ignore", RuntimeWarning)
            state, rec = trade(state, belief, trader=f"trader{rng.randrange(5)}",
                               t=state.t + rng.choice((1, 1, 2)))
        records.append(rec)
    outcome = prior.mean + rng.gauss(0.0, 1.0) * prior.sigma
    return opening, records, settle(state, outcome, records)


def test_market_replay_of_the_version_2_log_is_unchanged(tmp_path, capsys):
    log = FIXTURES / f"{V2_LOG}.jsonl"
    written = tmp_path / "session.jsonl"
    write_v2_log(written, *multi_trader_session())
    assert written.read_bytes() == log.read_bytes()
    out = tmp_path / "report.json"
    assert run(["market", "replay", "--log", str(log), "--out", str(out)], capsys)[0] == 0
    assert out.read_bytes() == (FIXTURES / f"{V2_LOG}.replay.json").read_bytes()

    lines = log.read_text().splitlines()
    record = json.loads(lines[30])
    record["cost"] += 1e-6
    lines[30] = json.dumps(record, sort_keys=True)
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    code, _, err = run(["market", "replay", "--log", str(tampered)], capsys)
    assert code == 4
    assert err.startswith("consistency error: record 29: line 31: logged cost")


def test_market_replay_of_the_version_3_log_is_unchanged(tmp_path, capsys):
    log = FIXTURES / f"{V3_LOG}.jsonl"
    written = tmp_path / "session.jsonl"
    write_log(written, *multi_trader_session())
    assert written.read_bytes() == log.read_bytes()
    out = tmp_path / "report.json"
    assert run(["market", "replay", "--log", str(log), "--out", str(out)], capsys)[0] == 0
    assert out.read_bytes() == (FIXTURES / f"{V3_LOG}.replay.json").read_bytes()
    assert out.read_bytes() == (FIXTURES / f"{V2_LOG}.replay.json").read_bytes()

    # A belief trade is cashless wherever its belief lies inside the grid,
    # so a mean moved there changes no cost and only the settlement shows
    # it; a mean moved onto the grid's edge loses half the belief's mass and
    # changes its own cost.
    lines = log.read_text().splitlines()
    hi = json.loads(lines[0])["grid"]["hi"]
    for mean, refused in ((0.5, "record 40: line 42: settlement maker_loss"),
                          (hi, "record 29: line 31: logged cost")):
        record = json.loads(lines[30])
        record["belief"]["mean"] = mean
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines[:30] + [json.dumps(record)] + lines[31:]) + "\n")
        code, _, err = run(["market", "replay", "--log", str(tampered)], capsys)
        assert code == 4
        assert err.startswith(f"consistency error: {refused}")


# Config text that json.load cannot take: bytes that are not UTF-8, arrays
# nested past the interpreter's recursion limit, and an integer of more
# digits than int() converts (a traceback once).
UNDECODABLE_CONFIGS = {
    "not_utf8": b'{"model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0}, "rule": "l\xffg"}',
    "nested_too_deeply": b"[" * 100000 + b"]" * 100000,
    "integer_too_long": b'{"n_bins": ' + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize("command", (["simulate"], ["discount"], ["market", "simulate"]))
@pytest.mark.parametrize("case", sorted(UNDECODABLE_CONFIGS))
def test_undecodable_config_is_config_error(case, command, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(UNDECODABLE_CONFIGS[case])
    code, _, err = run([*command, "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("config error:") and str(cfg) in err
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


# market simulate reports and logs written before trade, simulate_sessions
# and replay priced their inventories in one step: (config, sessions, the
# clipped-bin warning). Each session count spans three blocks of sessions;
# the 4,096-bin case is the loss-bound counterexample, whose sharp beliefs
# clip bins in every session.
MARKET_SIMULATE_CASES = {
    "constant_128": ({
        "model": {"tau_a": 2.0, "tau_b": 0.7, "tau_c": 0.5, "rho": -0.4, "c0": 0.3},
        "schedule": {"kind": "constant", "k0": 1.0},
        "n_bins": 128,
    }, 300, "belief density clipped to 1e-300 on 40 bins in 6 of 300 sessions"),
    "reset_512": ({
        "model": {"tau_a": 3.0, "tau_b": 1.5, "tau_c": 0.8, "rho": 0.35, "c0": -0.2},
        "schedule": {"kind": "piecewise", "k0": 1.0, "resets": [[2, 0.5]]},
        "n_bins": 512,
        "affine_shift": 0.25,
    }, 70, None),
    "clipped_4096": ({
        "model": {"tau_a": 100.0, "tau_b": 100.0, "tau_c": 1.0, "rho": 0.0},
        "schedule": {"kind": "constant", "k0": 1.0},
        "n_bins": 4096,
        "affine_shift": nonpositivity_shift(ScoringRule.LOGARITHMIC, 201.0),
    }, 10, "belief density clipped to 1e-300 on 86207 bins in 10 of 10 sessions"),
}


@pytest.mark.parametrize("name", sorted(MARKET_SIMULATE_CASES))
def test_market_simulate_report_and_log_are_unchanged(name, tmp_path, capsys):
    config, sessions, warning = MARKET_SIMULATE_CASES[name]
    cfg = write_config(tmp_path, config)
    out, log = tmp_path / "report.json", tmp_path / "session.jsonl"
    argv = ["market", "simulate", "--config", cfg, "--samples", str(sessions),
            "--seed", "13", "--out", str(out), "--log", str(log)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv, capsys)[0] == 0
    assert [(w.category, str(w.message)) for w in caught] == (
        [(RuntimeWarning, warning)] if warning else [])
    want = FIXTURES / f"market_simulate_{name}"
    assert out.read_bytes() == want.with_suffix(".json").read_bytes()
    assert log.read_bytes() == want.with_suffix(".jsonl").read_bytes()


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


@pytest.mark.parametrize("n_bins", [128.9, 128.0, "64", True, None, [64], 1, 0, -512, 2**20 + 1])
def test_market_n_bins_must_be_an_integer_in_range(n_bins, tmp_path, capsys):
    # 2**20 + 1 is refused before any grid is built.
    cfg = write_config(tmp_path, {
        "model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0},
        "n_bins": n_bins})
    code, out, err = run(["market", "simulate", "--config", cfg, "--samples", "2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "'n_bins'" in err


def test_market_n_bins_accepts_json_integers(tmp_path, capsys):
    for n_bins in (2, 64):
        cfg = write_config(tmp_path, {
            "model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0}, "n_bins": n_bins})
        code, out, _ = run(["market", "simulate", "--config", cfg, "--samples", "3"], capsys)
        assert code == 0 and json.loads(out)["n_bins"] == n_bins


def test_classify_malformed_range_is_config_error(capsys):
    code, _, err = run(["classify", "--grid", "rho=a:b:c"], capsys)
    assert code == 2
    assert "rho" in err


def test_discount_list_config_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, [{"tau_a": 1.0, "tau_b": 1.0}])
    code, _, err = run(["discount", "--config", cfg], capsys)
    assert code == 2
    assert "JSON object" in err


# Log-rule outputs written by the code before the quadratic rule's criterion,
# margin and ratio were rederived from the game's divergence, and outputs of
# both rules written before every curvature was read from scoring's
# divergence weight and rate; neither may move by a byte.
LOG_DISCOUNT_MODELS = {
    "spot": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 0.0, "rho": -0.8},
    "truthful": {"tau_a": 2.0, "tau_b": 1.0, "tau_c": 0.5, "rho": 0.3},
    "zero_response_locus": {"tau_a": 0.25, "tau_b": 1.0, "tau_c": 0.0, "rho": 0.5},
    "neutral_boundary": {"tau_a": 4.0, "tau_b": 1.0, "tau_c": 1.0, "rho": 0.5},
    "strong_prior": {"tau_a": 4.0, "tau_b": 1.0, "tau_c": 100.0, "rho": -0.6},
    "degenerate": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 0.5, "rho": 1.0},
}


def test_classify_log_csv_is_unchanged(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["classify", "--rule", "log", "--out", str(out)], capsys)[0] == 0
    assert out.read_bytes() == (FIXTURES / "classify_log_default.csv").read_bytes()


def test_classify_quadratic_csv_is_unchanged(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run(["classify", "--rule", "quadratic", "--out", str(out)], capsys)[0] == 0
    assert out.read_bytes() == (FIXTURES / "classify_quadratic_default.csv").read_bytes()


def _discount_report(rule, name, tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": LOG_DISCOUNT_MODELS[name]})
    out = tmp_path / "report.json"
    code, _, _ = run(["discount", "--rule", rule, "--config", cfg, "--out", str(out)], capsys)
    assert code == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(LOG_DISCOUNT_MODELS))
def test_discount_log_report_is_unchanged(name, tmp_path, capsys):
    report = _discount_report("log", name, tmp_path, capsys)
    assert report == (FIXTURES / f"discount_log_{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(LOG_DISCOUNT_MODELS))
def test_discount_quadratic_report_is_unchanged(name, tmp_path, capsys):
    report = _discount_report("quadratic", name, tmp_path, capsys)
    assert report == (FIXTURES / f"discount_quadratic_{name}.json").read_bytes()


# Simulate reports written before the batch paths took worlds, when the
# gain curve and each mechanism drew their own. 3,000 samples cover the
# mechanism comparison's 2,000-world slice of the curve's draw.
SIMULATE_MODEL = {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0, "rho": -0.8}

# 64 shifts, 0 among them: at 3,000 samples the curve spans 13 blocks of
# arms. The long_grid reports were written before the arms were blocked.
LONG_GRID = [-8.0 + 0.25 * i for i in range(64)]
SIMULATE_CASES = [
    *((rule, schedule, samples)
      for rule in ("log", "quadratic")
      for schedule in ("constant", "reset")
      for samples in (500, 3000)),
    ("log", "long_grid", 3000),
    ("quadratic", "long_grid", 3000),
]


def _simulate_config(rule, case):
    config = {"model": SIMULATE_MODEL, "rule": rule}
    if case == "constant":
        return {**config, "schedule": {"kind": "constant", "k0": 1.0}}
    # Reset from the log rule's required ratio to 1 at Bob's slot.
    k0 = required_ratio_log(SignalModel(**SIMULATE_MODEL))
    config["schedule"] = {"kind": "piecewise", "k0": k0, "resets": [[2, 1.0]]}
    if case == "long_grid":
        config["c_grid"] = LONG_GRID
    return config


@pytest.mark.parametrize("rule,schedule,samples", SIMULATE_CASES)
def test_simulate_report_is_unchanged(rule, schedule, samples, tmp_path, capsys):
    cfg = write_config(tmp_path, _simulate_config(rule, schedule))
    out = tmp_path / "report.json"
    argv = ["simulate", "--config", cfg, "--samples", str(samples), "--seed", "7",
            "--out", str(out)]
    assert run(argv, capsys)[0] == 0
    want = FIXTURES / f"simulate_{rule}_{schedule}_{samples}.json"
    assert out.read_bytes() == want.read_bytes()


def test_simulate_draws_its_worlds_once(monkeypatch):
    draws = []
    draw_worlds = game.draw_worlds

    def counted(*args, **kwargs):
        draws.append(args)
        return draw_worlds(*args, **kwargs)

    monkeypatch.setattr(game, "draw_worlds", counted)
    cmd_simulate(_simulate_config("log", "reset"), 3000, 7, os.devnull)
    assert len(draws) == 1


@pytest.mark.parametrize("rule", ("log", "quadratic"))
def test_simulate_scores_c_free_predictions_once(rule, monkeypatch):
    # The prior and the correction once, and the first and pooled reports
    # of the nine arms as one block; the mechanisms reuse the c = 0 arm.
    shapes = []
    score = game._score

    def counted(*args):
        shapes.append(np.shape(args[1]))
        return score(*args)

    monkeypatch.setattr(game, "_score", counted)
    cmd_simulate(_simulate_config(rule, "reset"), 500, 7, os.devnull)
    assert shapes == [(), (500,), (9, 500), (9, 500)]


# 1,821 worlds split the nine arms over two blocks, 2,001 leave the
# mechanisms fewer worlds than the curve, and 16,385 give each arm a block.
@pytest.mark.parametrize("samples", (2, 500, 1821, 2001, 16385))
@pytest.mark.parametrize("rule", ("log", "quadratic"))
def test_simulate_report_equals_the_public_batch_paths(rule, samples):
    config = _simulate_config(rule, "reset")
    report, _ = cmd_simulate(config, samples, 7, os.devnull)

    model = SignalModel(**SIMULATE_MODEL)
    schedule = DiscountSchedule.from_config(config["schedule"])
    scenario = game.Scenario(model=model, rule=ScoringRule(report["rule"]), schedule=schedule)
    worlds = game.draw_worlds(model, 7, samples)
    curve = game.deviation_curve(model, scenario.rule, schedule, _DEFAULT_C_GRID, worlds)
    assert [(p["mc_mean"], p["mc_std_error"]) for p in report["gain_curve"]] == curve
    compared = game.compare_mechanisms(scenario, tuple(w[:2000] for w in worlds))
    assert report["mechanisms"] == {
        mech: {e: float(v.mean()) for e, v in payoffs.items()}
        for mech, payoffs in compared.items()
    }


def test_classify_grid_dimension_holds_up_to_its_cap(capsys):
    code, out, _ = run(["classify", "--grid", "rho=0:0.9999:0.0001;ratio=1;tau_c=0"], capsys)
    assert code == 0 and len(parse_csv(out)) == 10_000
    code, out, err = run(["classify", "--grid", "rho=0:1:0.0001;ratio=1;tau_c=0"], capsys)
    assert code == 2 and out == "" and err.startswith("config error: rho:")


# Arguments that once raised a traceback or never returned, each with the
# text its config error must name. {missing} is a path in a directory that
# does not exist, {log} a valid trade log, {scenario} and {market} configs.
HOSTILE = {
    "grid_nan_stop": (["classify", "--grid", "rho=0:nan:0.1"], "rho"),
    "grid_infinite_start": (["classify", "--grid", "rho=-inf:0:1"], "rho"),
    "grid_huge_count": (["classify", "--grid", "rho=0:1e308:1e-10"], "rho"),
    "grid_tiny_step": (["classify", "--grid", "rho=0:1:1e-300"], "rho"),
    "grid_overflowing_span": (["classify", "--grid", "tau_c=-1e308:1e308:1"], "tau_c"),
    "grid_nan_value": (["classify", "--grid", "ratio=nan"], "ratio"),
    "grid_infinite_value": (["classify", "--grid", "tau_c=0,inf"], "tau_c"),
    "grid_too_many_models": (
        ["classify", "--grid", "rho=-0.9:0.9:0.001;ratio=0.1:10:0.1;tau_c=0:10:0.5"],
        "models"),
    "classify_out": (
        ["classify", "--grid", "rho=0;ratio=1;tau_c=0", "--out", "{missing}"], "{missing}"),
    "discount_out": (["discount", "--config", "{scenario}", "--out", "{missing}"], "{missing}"),
    "simulate_out": (
        ["simulate", "--config", "{scenario}", "--samples", "100", "--out", "{missing}"],
        "{missing}"),
    "simulate_samples": (
        ["simulate", "--config", "{scenario}", "--samples", str(_MAX_SAMPLES + 1)],
        "--samples"),
    "market_out": (
        ["market", "simulate", "--config", "{market}", "--samples", "2", "--out", "{missing}"],
        "{missing}"),
    "market_log": (
        ["market", "simulate", "--config", "{market}", "--samples", "2", "--log", "{missing}"],
        "{missing}"),
    "market_samples": (
        ["market", "simulate", "--config", "{market}", "--samples", str(10**30)], "--samples"),
    "replay_out": (["market", "replay", "--log", "{log}", "--out", "{missing}"], "{missing}"),
    "grid_repeated_values": (["classify", "--grid", "rho=0:1e-12:2e-13;ratio=1;tau_c=0"], "rho"),
    # alpha_g = tau_a / (tau_a + tau_c) underflowed to 0 and divided; the
    # ratio now lies outside the precision range [1e-100, 1e100].
    "grid_alpha_g_underflow": (
        ["classify", "--grid", "ratio=1e-300;tau_c=1e30;rho=0.5"], "ratio"),
}

# Config files that once raised a bare ValueError, were silently read as
# something else, or reported agreement on a NaN curve or disagreement on a
# lost shift: the commands that read them, the config's own fields (over a
# sampleable model), and the text the error must name. Each becomes one
# HOSTILE case per command, with the config's path at {name}.
BOTH_SIMULATIONS = ("simulate", "market")
HOSTILE_CONFIGS = {
    "reset_counter_string": (
        BOTH_SIMULATIONS, {"schedule": {"kind": "piecewise", "k0": 1.0, "resets": [["a", 1]]}},
        "resets"),
    "reset_entry_short": (
        BOTH_SIMULATIONS, {"schedule": {"kind": "piecewise", "k0": 1.0, "resets": [[1]]}},
        "resets"),
    "reset_counter_fractional": (
        BOTH_SIMULATIONS, {"schedule": {"kind": "piecewise", "k0": 1.0, "resets": [[1.5, 1]]}},
        "resets"),
    "reset_counter_boolean": (
        BOTH_SIMULATIONS, {"schedule": {"kind": "piecewise", "k0": 1.0, "resets": [[True, 1]]}},
        "resets"),
    "reset_level_boolean": (
        BOTH_SIMULATIONS, {"schedule": {"kind": "piecewise", "k0": 1.0, "resets": [[2, True]]}},
        "resets"),
    "k0_boolean": (BOTH_SIMULATIONS, {"schedule": {"kind": "constant", "k0": True}}, "k0"),
    # A schedule of the wrong type, or a mistyped or missing k0, was once
    # refused without the field's path.
    "schedule_list": (BOTH_SIMULATIONS, {"schedule": [{"kind": "constant", "k0": 1.0}]},
                      "field 'schedule': must be a JSON object"),
    "schedule_string": (BOTH_SIMULATIONS, {"schedule": "constant"},
                        "field 'schedule': must be a JSON object"),
    "k0_string": (BOTH_SIMULATIONS, {"schedule": {"kind": "constant", "k0": "1"}},
                  "schedule: field 'k0': must be a finite number"),
    "k0_missing": (BOTH_SIMULATIONS, {"schedule": {"kind": "constant"}},
                   "schedule: field 'k0' is missing"),
    "c_grid_nan": (("simulate",), {"c_grid": [float("nan")]}, "c_grid"),
    "c_grid_empty": (("simulate",), {"c_grid": []}, "c_grid"),
    "c_grid_string": (("simulate",), {"c_grid": [1.0, "2"]}, "c_grid"),
    # The cases down to "margin_not_finite" hold a precision outside the
    # range [1e-100, 1e100], which is a config error naming the field.
    # sqrt(tau_a * tau_b) once overflowed: a traceback from the quadratic
    # rule, "k_min_numeric": NaN from the log rule.
    "precision_product_overflow": (
        ("discount_log", "discount_quadratic", *BOTH_SIMULATIONS),
        {"model": {"tau_a": 1e10, "tau_b": 1e300, "rho": 0.5, "tau_c": 1}}, "'tau_b'"),
    # alpha_g = tau_a / (tau_a + tau_c) once underflowed to 0 and divided.
    "alpha_g_underflow": (
        ("discount_log", "discount_quadratic", *BOTH_SIMULATIONS),
        {"model": {"tau_a": 1e-300, "tau_b": 1, "tau_c": 1e30, "rho": 0.5}}, "'tau_a'"),
    # Booleans and strings were once read as numbers.
    "tau_a_boolean": (
        ("discount_log", *BOTH_SIMULATIONS),
        {"model": {"tau_a": True, "tau_b": 1.0, "tau_c": 1.0, "rho": -0.8}}, "tau_a"),
    "rho_string": (
        ("discount_log", *BOTH_SIMULATIONS),
        {"model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0, "rho": "-0.8"}}, "rho"),
    "affine_shift_string": (("market",), {"affine_shift": "0.5"}, "affine_shift"),
    "prior_mean_boolean": (
        ("market",), {"prior": {"mean": True, "precision": "2"}}, "mean"),
    "prior_precision_string": (
        ("market",), {"prior": {"mean": 0.0, "precision": "2"}}, "precision"),
    # Worlds of scale 1e150 once absorbed every shift in a0 + c: each point
    # read a standard error of 0 against analytic -5.33 at c = -4 and exited
    # 4. At tau_c = 1e-100, in range, the worlds' scale of 1e50 still does.
    "lost_shift": (
        ("simulate",), {"model": {"tau_a": 1, "tau_b": 1, "tau_c": 1e-100, "rho": 0.5}},
        "c = -4"),
    # A prior of precision 1e-300 once clipped 15,300 bins in every market
    # session with exit 0, and scaled the worlds as in "lost_shift".
    "tau_c_below_range": (
        BOTH_SIMULATIONS, {"model": {"tau_a": 1, "tau_b": 1, "tau_c": 1e-300, "rho": 0.5}},
        "'tau_c'"),
    "prior_precision_below_range": (
        ("market",), {"prior": {"mean": 0.0, "precision": 1e-300}}, "'precision'"),
    # The log rule's closed-form ratio in float64 once divided by zero (a
    # traceback), and once printed "k_min_analytic": NaN and "margin":
    # -Infinity with exit 0. Its curvature ratio R printed K = 0.951 against
    # an exact 0.249.
    "k_min_analytic_divides_by_zero": (
        ("discount_log",),
        {"model": {"tau_a": 1.0907e-227, "tau_b": 1.1536e-227, "tau_c": 2.0250e-252,
                   "rho": 0.69944}},
        "'tau_a'"),
    "margin_not_finite": (
        ("discount_log",), {"model": {"tau_a": 1e300, "tau_b": 1e-300, "tau_c": 1, "rho": 0.5}},
        "'tau_a'"),
}
# The cases that are numeric failures (exit 3) rather than config errors.
NUMERIC_HOSTILE = {"simulate_lost_shift"}
_CONFIG_COMMANDS = {
    "simulate": ["simulate", "--samples", "100"],
    "market": ["market", "simulate", "--samples", "2"],
    "discount_log": ["discount", "--rule", "log"],
    "discount_quadratic": ["discount", "--rule", "quadratic"],
}
HOSTILE.update({
    f"{command}_{name}": ([*_CONFIG_COMMANDS[command], "--config", f"{{{name}}}"], named)
    for name, (commands, _, named) in HOSTILE_CONFIGS.items()
    for command in commands
})


def _hostile_paths(tmp_path, capsys):
    paths = {
        "missing": str(tmp_path / "missing" / "out.txt"),
        "log": str(tmp_path / "session.jsonl"),
        "scenario": write_config(tmp_path, {
            "model": {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0, "rho": -0.8}}),
        "market": market_config(tmp_path),
    }
    for name, (_, fields, _) in HOSTILE_CONFIGS.items():
        model = {"tau_a": 1.0, "tau_b": 1.0, "tau_c": 1.0, "rho": -0.8}
        paths[name] = write_config(tmp_path, {"model": model, **fields}, name=f"{name}.json")
    code = main(["market", "simulate", "--config", paths["market"], "--samples", "2",
                 "--log", paths["log"]])
    capsys.readouterr()
    assert code == 0
    return paths


def _fill(items, paths):
    return [item.format(**paths) for item in items]


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_arguments_are_config_errors(case, tmp_path, capsys):
    paths = _hostile_paths(tmp_path, capsys)
    argv, named = HOSTILE[case]
    code, out, err = run(_fill(argv, paths), capsys)
    numeric = case in NUMERIC_HOSTILE
    assert code == (3 if numeric else 2) and out == ""
    prefix = "numeric error:" if numeric else "config error:"
    assert err.startswith(prefix) and named.format(**paths) in err
    assert not (tmp_path / "missing").exists()


def test_hostile_arguments_write_no_traceback(tmp_path, capsys):
    # One interpreter runs every case through main(); an escaped exception
    # would end it with a traceback on stderr.
    paths = _hostile_paths(tmp_path, capsys)
    argvs = [_fill(argv, paths) for argv, _ in HOSTILE.values()]
    code = (
        "import json, sys\n"
        "from scoremech.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        timeout=120,
    )
    assert "Traceback" not in done.stderr, done.stderr
    assert done.returncode == 0
    assert json.loads(done.stdout) == [3 if case in NUMERIC_HOSTILE else 2 for case in HOSTILE]


# Fuzzed inputs: one field of a valid config or of a valid three-trade log
# set to an arbitrary JSON value or deleted, or a log line replaced by
# garbage. Every run must exit 0, 2, 3 or 4 without a traceback; a field
# given a value of another JSON type (or a non-integer where an integer
# was) must be named when it is refused; and no report may print a
# non-finite number, except the quadratic discount margin at |rho| = 1.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=4,
)
DELETED = object()
# n_bins is drawn from a bounded set, so that no example allocates more
# than a few MiB: small grids, one past the cap, and other JSON types.
N_BINS_VALUES = st.sampled_from([2, 3, 16, 2**20 + 1, True, 16.0, 2.5, "16", None, [16]])
FUZZ_MODEL = {"tau_a": 1.0, "tau_b": 2.0, "tau_c": 1.0, "rho": -0.5, "c0": 0.25}
FUZZ_SCHEDULE = {"kind": "piecewise", "k0": 2.0, "decay": 1.0, "resets": [[2, 1.0]]}
FUZZ_CONFIGS = {
    "discount": {"model": FUZZ_MODEL},
    "simulate": {"model": FUZZ_MODEL, "rule": "log", "schedule": FUZZ_SCHEDULE,
                 "c_grid": [-1.0, 0.5]},
    "market": {"model": FUZZ_MODEL, "prior": {"mean": 0.0, "precision": 1.0},
               "schedule": FUZZ_SCHEDULE, "n_bins": 16, "affine_shift": 0.0},
}


def field_paths(record):
    """The keys of a JSON object and of the objects it holds."""
    return [(key,) for key in record] + [
        (key, sub) for key, value in record.items() if isinstance(value, dict) for sub in value]


def edited(record, path, value):
    record = copy.deepcopy(record)
    target = record
    for key in path[:-1]:
        target = target[key]
    if value is DELETED:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return record


def retyped(old, new):
    """True when ``new`` is missing, of another JSON type than ``old``, or
    not an integer where ``old`` is one."""
    def kind(value):
        return "number" if type(value) in (int, float) else type(value)
    return new is DELETED or kind(new) != kind(old) or (type(old) is int and type(new) is not int)


def run_quietly(argv):
    """Exit code, stdout and stderr of ``main(argv)``, with warnings (such
    as clipped beliefs) ignored."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_fuzzed_run(code, out, err, key, named):
    assert code in (0, 2, 3, 4), (code, err)
    if err:
        assert err.startswith(("config error:", "numeric error:", "consistency error:")), err
    if code in (2, 4) and err and named:
        assert re.search(rf"\b{re.escape(key)}\b", err), (key, err)
    if out:
        report = json.loads(out)
        if (report["schema"] == "scoremech-discount v1" and report["rule"] == "quadratic"
                and abs(report["model"]["rho"]) == 1.0):
            assert report.pop("margin") == -math.inf
        assert not re.search(r"\bNaN\b|Infinity", json.dumps(report)), out


@given(st.data())
def test_fuzzed_configs_exit_cleanly(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(FUZZ_CONFIGS)))
    config = FUZZ_CONFIGS[command]
    path = data.draw(st.sampled_from(field_paths(config)))
    values = N_BINS_VALUES if path == ("n_bins",) else JSON_VALUES
    value = data.draw(values | st.just(DELETED))
    cfg = write_config(tmp_path_factory.getbasetemp(), edited(config, path, value),
                       name="fuzzed.json")
    samples = str(data.draw(st.integers(2, 5)))
    argv = {
        "discount": ["discount", "--rule", data.draw(st.sampled_from(["log", "quadratic"]))],
        "simulate": ["simulate", "--samples", samples],
        "market": ["market", "simulate", "--samples", samples],
    }[command]
    old = config
    for key in path:
        old = old[key]
    check_fuzzed_run(*run_quietly([*argv, "--config", cfg]), path[-1], retyped(old, value))


@pytest.fixture(scope="module")
def fuzz_log(tmp_path_factory):
    """A directory to write logs in, and the parsed lines of a settled
    three-trade 16-bin log."""
    directory = tmp_path_factory.mktemp("fuzzed_logs")
    cfg = write_config(directory, FUZZ_CONFIGS["market"], name="market.json")
    log = directory / "session.jsonl"
    assert run_quietly(["market", "simulate", "--config", cfg, "--samples", "2",
                        "--log", str(log)])[0] == 0
    return directory, [json.loads(line) for line in log.read_text().splitlines()]


@given(st.data())
def test_fuzzed_logs_exit_cleanly(fuzz_log, data):
    directory, objs = fuzz_log
    lines = [json.dumps(obj).encode() for obj in objs]
    index = data.draw(st.integers(0, len(lines) - 1))
    key, named = None, False
    if data.draw(st.booleans()):
        path = data.draw(st.sampled_from(field_paths(objs[index])))
        value = data.draw(JSON_VALUES)
        lines[index] = json.dumps(edited(objs[index], path, value)).encode()
        old = objs[index]
        for key in path:
            old = old[key]
        named = retyped(old, value)
    else:
        lines[index] = data.draw(st.binary(max_size=12) | st.text(max_size=12).map(str.encode)
                                 | JSON_VALUES.map(lambda v: json.dumps(v).encode()))
    log = directory / "fuzzed.jsonl"
    log.write_bytes(b"\n".join(lines) + b"\n")
    code, out, err = run_quietly(["market", "replay", "--log", str(log)])
    assert code in (0, 4), (code, err)
    if code == 4:
        assert re.match(r"consistency error: record \d+: line \d+: ", err), err
    check_fuzzed_run(code, out, err, key, named)
