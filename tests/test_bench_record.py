"""The acceptance verdicts ``bench/record.py`` writes into a summary."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)

LOWER = {"name": "wall_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "speedup", "better": "higher", "bound": 0.05}


def _summary(metric, before, after):
    """The summary of one workload whose pairs of runs read ``before`` and
    ``after`` on ``metric``."""

    def runs(values):
        return [
            {"workload": "w", "result": {"metrics": {metric["name"]: {"value": v}}}}
            for v in values
        ]

    summary = record.summarize({"before": runs(before), "after": runs(after)}, [metric])
    return summary["w"][metric["name"]]


BEFORE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


@pytest.mark.parametrize(
    "after, met",
    [
        # better in every pair, by far more than the quartile spread
        ([v - 1.0 for v in BEFORE], True),
        # better in 9 pairs and tied in one: ties count for neither side
        ([v - 1.0 for v in BEFORE[:9]] + [BEFORE[9]], True),
        # better in 8 pairs, tied in two
        ([v - 1.0 for v in BEFORE[:8]] + BEFORE[8:], False),
        # better in every pair, but the medians are closer than the spread
        ([v - 0.01 for v in BEFORE], False),
        # worse everywhere
        ([v + 1.0 for v in BEFORE], False),
    ],
)
def test_claim_met(after, met):
    figures = _summary(LOWER, BEFORE, after)
    assert figures["claim_met"] is met
    assert figures["pairs"] == 10


def test_claim_met_where_higher_is_better():
    assert _summary(HIGHER, BEFORE, [v + 1.0 for v in BEFORE])["claim_met"] is True
    assert _summary(HIGHER, BEFORE, [v - 1.0 for v in BEFORE])["claim_met"] is False


@pytest.mark.parametrize(
    "metric, shift, regressed",
    [
        # the before median is 10.0: a quarter of it is 2.5, 5 % is 0.5
        (LOWER, 2.4, False),
        (LOWER, 2.6, True),
        (LOWER, -5.0, False),
        (HIGHER, -0.4, False),
        (HIGHER, -0.6, True),
        (HIGHER, 5.0, False),
    ],
)
def test_regressed_past_the_relative_bound(metric, shift, regressed):
    figures = _summary(metric, BEFORE, [v + shift for v in BEFORE])
    assert figures["before_median"] == 10.0
    assert figures["regressed"] is regressed
