"""The claim rule of tools/bench_pairs.py, which judges parent/change pairs."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
judge = bench_pairs.judge

FLAT = [10.0] * 10  # a parent with no spread: its IQR is 0
SPREAD = [10.0 + i for i in range(10)]  # quartiles 11.75 and 17.25, median 14.5


@pytest.mark.parametrize("better, wins", [("lower", 5), ("higher", 0)])
def test_ties_count_for_neither_side(better, wins):
    # five ties and five runs that read lower
    j = judge(FLAT, [10.0] * 5 + [9.0] * 5, better, 0.24)
    assert j["wins"] == wins and j["pairs"] == 10


def test_nine_wins_of_ten_claim_and_eight_do_not():
    nine = judge(FLAT, [9.0] * 9 + [11.0], "lower", 0.24)
    assert nine["wins"] == 9 and nine["claim"]
    eight = judge(FLAT, [9.0] * 8 + [11.0] * 2, "lower", 0.24)
    assert eight["wins"] == 8 and not eight["claim"]
    # higher is better: the same runs mirrored
    assert judge(FLAT, [11.0] * 9 + [9.0], "higher", 0.24)["claim"]
    assert not judge(FLAT, [11.0] * 8 + [9.0] * 2, "higher", 0.24)["claim"]


def test_a_gain_inside_the_parents_iqr_claims_nothing():
    # every pair is won, but by 1 against an IQR of 5.5
    j = judge(SPREAD, [p - 1 for p in SPREAD], "lower", 0.5)
    assert j["wins"] == 10 and (j["q1"], j["q3"]) == (11.75, 17.25)
    assert not j["claim"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # IQR over median is 5.5 / 14.5, about 0.38: wider than 0.24
    assert judge(SPREAD, SPREAD, "lower", 0.24)["bound"] == "unresolved"
    assert judge(SPREAD, SPREAD, "lower", 0.4)["bound"] == "inside"
    # unless every change run beats every parent run
    j = judge(SPREAD, [p - 10.5 for p in SPREAD], "lower", 0.24)
    assert j["bound"] == "inside" and j["claim"]
    assert judge(SPREAD, [p + 10.5 for p in SPREAD], "higher", 0.24)["bound"] == "inside"
    # one change run that only ties the best parent run leaves it unresolved
    assert judge(SPREAD, [p - 10.5 for p in SPREAD[:-1]] + [10.0], "lower", 0.24)[
        "bound"
    ] == "unresolved"


@pytest.mark.parametrize(
    "better, change, bound",
    [
        ("lower", 10.9, "inside"),
        ("lower", 11.1, "past"),
        ("lower", 9.0, "inside"),
        ("higher", 9.1, "inside"),
        ("higher", 8.9, "past"),
        ("higher", 11.0, "inside"),
    ],
)
def test_inside_and_past_the_bound(better, change, bound):
    # a bound of 0.1 on a median of 10 lets the change be worse by 1
    assert judge(FLAT, [change] * 10, better, 0.1)["bound"] == bound


@pytest.mark.parametrize("pairs", [1, 0])
def test_fewer_than_two_pairs_exit_before_any_run(tmp_path, pairs):
    # the checkouts are empty directories, so a run begun would fail otherwise
    a, b = tmp_path / "parent", tmp_path / "change"
    a.mkdir()
    b.mkdir()
    cmd = [sys.executable, str(TOOL), str(a), str(b), "--workload", "corpus",
           "--pairs", str(pairs), "--seconds", "1", "--first-seed", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.splitlines() == [f"error: --pairs must be at least 2, not {pairs}"]
    assert not any(a.iterdir()) and not any(b.iterdir())
