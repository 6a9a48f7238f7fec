"""Trade logs as format versions 1 and 2 wrote them, built from today's
records, so that the replay of those versions keeps its tests now that
``write_log`` writes version 3."""

import base64
import json

import numpy as np

from scoremech import amm, replay


def shares_text(values):
    """Version-2 log text of an inventory."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def shares_of(text):
    """The inventory that version-2 log text holds."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()


def v2_lines(opening, records, report=None):
    """The lines of a log as version 2 wrote it: each record logs its pre-
    and post-trade inventories as base64 text, and no belief."""
    objs = [dict(amm.log_header(opening), version=2)]
    for i, rec in enumerate(records):
        objs.append({"i": i, "t": rec.t, "trader": rec.trader, "cost": rec.cost,
                     "clipped_bins": rec.clipped_bins, "pre": shares_text(rec.pre_shares),
                     "post": shares_text(rec.post_shares)})
    if report is not None:
        objs.append(amm.settlement_to_json(report))
    return [json.dumps(obj, sort_keys=True) for obj in objs]


def write_v2_log(path, opening, records, report=None):
    path.write_text("".join(line + "\n" for line in v2_lines(opening, records, report)))


def as_version_2(lines):
    """A version-3 log's lines as version 2 wrote them, from the opening
    state, records and settlement that its replay rebuilds."""
    opening = replay(lines[:1])[0]
    _, records, report = replay(lines)
    return v2_lines(opening, records, report)


def as_version_1(lines):
    """A version-2 log's lines as version 1 wrote them: inventories as JSON
    lists of numbers."""
    objs = [json.loads(line) for line in lines]
    objs[0]["version"] = 1
    for obj in objs:
        for key in ("s0", "pre", "post"):
            if key in obj:
                obj[key] = shares_of(obj[key]).tolist()
    return [json.dumps(obj, sort_keys=True) for obj in objs]
