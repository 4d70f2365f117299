"""The summary of tools/bench_ab.py, on hand-made bench records."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "maa_s9", "unit": "ratio", "better": "higher", "bound": 0.1},
    {"name": "val_auc", "unit": "ratio", "better": "higher", "bound": 0.25},
]


def record(**values):
    return {"metrics": {name: {"value": v} for name, v in values.items()}, "failed": 0}


def test_medians_spread_and_wins():
    base = [record(wall_s=w, maa_s9=0.7) for w in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [record(wall_s=w, maa_s9=0.7) for w in (0.5, 2.5, 2.0, 3.0, 9.0)]
    wall, maa = bench_ab.summarize(base, change, METRICS)
    assert wall == {
        "metric": "wall_s", "unit": "s", "base": 3.0, "change": 2.5,
        "base_q1": 2.0, "base_q3": 4.0, "wins": 3, "ties": 0, "pairs": 5,
        "worse": False, "noisy": True,
    }
    assert (maa["base"], maa["change"], maa["wins"], maa["ties"]) == (0.7, 0.7, 0, 5)
    assert not maa["worse"]


@pytest.mark.parametrize(
    "metric, base, change, worse",
    [
        ("wall_s", 1.0, 1.25, False),  # at the bound
        ("wall_s", 1.0, 1.3, True),
        ("wall_s", 1.0, 0.5, False),
        ("maa_s9", 0.8, 0.73, False),
        ("maa_s9", 0.8, 0.7, True),
        ("maa_s9", 0.8, 0.9, False),
    ],
)
def test_worse_than_the_bound_is_marked(metric, base, change, worse):
    (row,) = bench_ab.summarize(
        [record(**{metric: base})] * 3, [record(**{metric: change})] * 3, METRICS
    )
    assert row["worse"] is worse
    assert ("WORSE" in bench_ab.format_rows("fit", [row])) is worse


@pytest.mark.parametrize(
    "base_walls, noisy",
    [
        ((0.9, 1.0, 1.0, 1.1, 1.2), False),
        ((0.8, 0.9, 1.0, 1.15, 1.2), False),  # IQR 0.25 at the bound
        ((0.8, 0.85, 1.0, 1.15, 1.2), True),
        ((0.5, 0.6, 1.0, 1.4, 1.5), True),
    ],
)
def test_base_spread_wider_than_the_bound_is_noisy(base_walls, noisy):
    base = [record(wall_s=w) for w in base_walls]
    change = [record(wall_s=w * 1.5) for w in base_walls]
    (row,) = bench_ab.summarize(base, change, METRICS)
    assert row["noisy"] is noisy
    assert row["worse"]  # the two marks are independent
    line = bench_ab.format_rows("fit", [row]).splitlines()[1]
    assert line.endswith("WORSE  NOISY" if noisy else "WORSE")


def test_metric_a_record_lacks_is_left_out():
    base = [record(wall_s=1.0, val_auc=None), record(wall_s=2.0, val_auc=0.6)]
    change = [record(wall_s=1.0, val_auc=0.7), record(wall_s=2.0, val_auc=0.5)]
    wall, auc = bench_ab.summarize(base, change, METRICS)
    assert (wall["pairs"], wall["ties"], wall["base_q1"], wall["base_q3"]) == (2, 2, 1.25, 1.75)
    assert (auc["pairs"], auc["base"], auc["change"], auc["wins"]) == (1, 0.6, 0.5, 0)
    assert auc["base_q1"] == auc["base_q3"] == 0.6


def test_pairs_must_match():
    with pytest.raises(ValueError):
        bench_ab.summarize([record(wall_s=1.0)], [], METRICS)


def test_format_names_every_metric():
    rows = bench_ab.summarize([record(wall_s=1.0, maa_s9=0.5)],
                              [record(wall_s=0.9, maa_s9=0.5)], METRICS)
    text = bench_ab.format_rows("tune", rows)
    assert text.splitlines()[0] == "tune:"
    assert "wall_s" in text and "wins 1/1" in text and "maa_s9" in text
    assert "val_auc" not in text
