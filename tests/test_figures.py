"""The paper-claims table (``benchmarks/figures.py``): every artefact of
DESIGN §3 is an entry, every grid is the cells it always was, margins
never raise, and the cheap figures reproduce their committed verdicts."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import config_key

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import figures  # noqa: E402  (benchmarks/ is not a package)
from figures import Claim, Figure, compare, holds, of  # noqa: E402

GRIDS = [f for f in figures.FIGURES if not callable(f.measure)]


def configs(figure):
    return [c for seeds in figure.measure.values() for c in seeds]


def test_design_index_and_table_name_the_same_artefacts():
    section = (ROOT / "DESIGN.md").read_text().split("## 3. Per-experiment")[1]
    section = section.split("\n## ")[0]
    named = re.findall(r"\| `(\w+)` \|$", section, flags=re.MULTILINE)
    assert sorted(named) == sorted(f.name for f in figures.FIGURES)
    assert len(named) == 20


def test_grids_hand_the_runner_the_130_cells_they_always_did():
    keys = {}
    for figure in GRIDS:
        assert all(isinstance(c, ExperimentConfig) for c in configs(figure))
        keys[figure.name] = [config_key(c) for c in configs(figure)]
        assert len(set(keys[figure.name])) == len(keys[figure.name])
        # scale_line() reads one cell: a figure has one scale.
        assert len({(c.n_flows, c.size_scale, c.time_scale,
                     c.topology.n_leaves, c.topology.n_spines,
                     c.topology.hosts_per_leaf)
                    for c in configs(figure)}) == 1
    assert len(GRIDS) == 14
    assert sum(map(len, keys.values())) == 138
    assert len(set().union(*keys.values())) == 130
    assert len(keys["fig11_testbed_breakdown"]) == 8
    assert set(keys["fig11_testbed_breakdown"]) < set(
        keys["fig10_testbed_asymmetric"])


def test_every_parent_assert_is_a_claim():
    # 55 assert statements at PR 21's parent, 82 counting loop instances;
    # plus the 4 + 3 detection claims Figs. 16 / 17 gained when their
    # malfunction became a t=0 fault schedule (PR 24).
    # Less Fig. 18's full-Hermes-against-itself row (held by construction).
    assert sum(len(f.claims) for f in figures.FIGURES) == 82 + 7 - 1


@pytest.mark.parametrize("a, op, b, k, margin", [
    (1.0, "<", 2.0, 1.0, 0.5),
    (3.0, "<", 2.0, 1.0, -0.5),
    (2.0, "<=", 2.0, 1.0, 0.0),        # a tie holds
    (1.0, "<", 1.0, 1.1, 1 - 1 / 1.1),
    (3.0, ">", 2.0, 1.0, 0.5),
    (0.965, ">", 1.315, 0.9, 0.965 / (0.9 * 1.315) - 1),
    (0, "<=", 5, 1.0, 1.0),            # a zero numerator is a number
    (1.0, "<", 0.0, 1.0, -1.0),        # a zero bound: the boolean, no ratio
    (14.0, ">", 0.0, 1.0, 1.0),
    (0.0, ">", 0.0, 1.0, -1.0),
    (0.0, ">=", 0.0, 1.0, 1.0),
    (None, "<", 1.0, 1.0, -1.0),       # None, NaN: failing, not raising
    (1.0, ">", None, 1.0, -1.0),
    (float("nan"), "<", 1.0, 1.0, -1.0),
])
def test_comparison_margins(a, op, b, k, margin):
    results = {"a": {"x": a}, "b": {"x": b}}
    claim = compare(of("a", "x"), op, of("b", "x"), k)
    assert claim.margin(results) == pytest.approx(margin)
    bound = "x[b]" if k == 1.0 else f"{k:g} x x[b]"
    assert claim.text == f"x[a] {op} {bound}"


def test_number_operands_and_boolean_margins():
    results = {"a": {"x": 4}}
    assert compare(of("a", "x"), ">=", 1).margin(results) == 3.0
    assert compare(of("a", "x"), ">=", 1).text == "x[a] >= 1"
    assert holds("t", lambda res: res["a"]["x"] == 4).margin(results) == 1.0
    assert holds("t", lambda res: res["a"]["x"] == 5).margin(results) == -1.0


def test_a_figure_without_claims_or_with_a_taken_name_is_refused():
    claim = Claim("c", lambda results: 1.0)
    with pytest.raises(ValueError, match="at least one claim"):
        Figure("f", "t", "p", dict, [], [])
    with pytest.raises(ValueError, match="each worded once"):
        Figure("f", "t", "p", dict, [], [claim, claim])
    fig13 = Figure("fig13_again", "t", "p", dict, [], [claim])
    with pytest.raises(ValueError, match="'fig13'"):
        figures.index([*figures.FIGURES, fig13])


@pytest.mark.parametrize("name", ["table6", "fig2", "fig3", "fig7"])
def test_cheap_figures_reproduce_their_committed_rows(name, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.setattr(figures, "RESULTS_DIR", str(tmp_path))
    (figure,) = figures.select([name])
    rows = figures.run(figure)
    committed = json.loads((ROOT / "BENCH_paper.json").read_text())
    assert rows == [r for r in committed if r["figure"] == figure.name]
    report = (tmp_path / f"{figure.name}.txt").read_text()
    assert report == capsys.readouterr().out.rstrip("\n") + "\n"
    assert f"=== {figure.title} ===" in report
    assert f"paper: {figure.paper}" in report


def test_a_partial_run_rewrites_only_its_figures_rows(tmp_path, monkeypatch):
    scores, card = tmp_path / "BENCH_paper.json", tmp_path / "EXPERIMENTS.md"
    monkeypatch.setattr(figures, "SCORES_PATH", str(scores))
    monkeypatch.setattr(figures, "SCORECARD_PATH", str(card))
    card.write_text(f"before\n{figures.SCORECARD_BEGIN}\nstale\n"
                    f"{figures.SCORECARD_END}\nafter\n")

    def row(figure, margin):
        return {"figure": figure, "claim": "c", "holds": margin >= 0,
                "margin": margin}

    figures.write_scores([row("fig7_workloads", 0.5),
                          row("table6_probing", 0.25)])
    figures.write_scores([row("fig7_workloads", -0.5)])
    assert json.loads(scores.read_text()) == [
        row("table6_probing", 0.25), row("fig7_workloads", -0.5)]
    text = card.read_text()
    assert text.startswith("before\n") and text.endswith("\nafter\n")
    assert "stale" not in text
    assert "| `fig7_workloads` | c | **no** | -0.5000 |" in text
    assert "| `table6_probing` | c | yes | +0.2500 |" in text


def test_unknown_figure_names_are_refused():
    assert figures.select([]) == figures.FIGURES
    with pytest.raises(SystemExit, match="fig99"):
        figures.select(["fig99"])
