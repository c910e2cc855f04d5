"""The pair summary and the run helper of ``tools/bench_file.py``: no benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_file  # noqa: E402


def test_median_and_quartiles_per_side():
    out = bench_file.summary({"parent": [4.0, 1.0, 3.0, 2.0, 5.0], "change": [10.0, 30.0, 20.0, 40.0]}, "higher")
    assert out["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [4.0, 1.0, 3.0, 2.0, 5.0]}
    assert (out["change"]["q1"], out["change"]["median"], out["change"]["q3"]) == (17.5, 25.0, 32.5)


@pytest.mark.parametrize("better, wins", [("higher", 2), ("lower", 1)])
def test_change_wins_counts_strict_wins_in_the_better_direction(better, wins):
    # pairs: change higher, tie, change higher, change lower
    out = bench_file.summary({"parent": [1.0, 2.0, 3.0, 4.0], "change": [1.5, 2.0, 3.5, 3.0]}, better)
    assert out["change_wins"] == wins


def test_ties_count_for_neither_side():
    runs = {"parent": [1.0, 2.0, 3.0], "change": [1.0, 2.0, 3.0]}
    assert bench_file.summary(runs, "higher")["change_wins"] == 0
    assert bench_file.summary(runs, "lower")["change_wins"] == 0


def test_the_first_side_alternates_from_pair_to_pair():
    orders = [bench_file.order(turn) for turn in range(6)]
    assert all(sorted(o) == sorted(bench_file.SIDES) for o in orders)
    assert [o[0] for o in orders] == ["parent", "change"] * 3


def test_digests_match_flags_each_digest_of_the_parent():
    parent = {"host": {"cpus": 2}, "k": {"k_ms": {"cli": 1.0}, "sha256": {"cli": "aa", "grid900": "bb"}}}
    change = {"host": {"cpus": 2}, "k": {"k_ms": {"cli": 2.0}, "sha256": {"cli": "aa", "grid900": "cc"}}}
    assert bench_file.digests_match(parent, change) == {"k/cli": True, "k/grid900": False}
    assert bench_file.digests_match(parent, {}) == {"k/cli": False, "k/grid900": False}


def test_a_measured_run_records_the_steal_share():
    out = bench_file.measured_run([sys.executable, "-c", "print('{\"x\": 1}')"], Path.cwd())
    assert out["x"] == 1
    assert out["steal_frac"] is None or 0.0 <= out["steal_frac"] <= 1.0
