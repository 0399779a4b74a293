"""Golden selections: ``m_hat`` and the selected indices on eleven fixed inputs.

A report's bytes change with the BLAS kernel family (the soft labels and
the score records round differently), but on these inputs the selection
does not, so the table must hold as it is on every kernel. A change that
moves a selection regenerates the table in the same commit with

    PYTHONPATH=src python tests/test_golden.py

and lists the old and new ``m_hat`` of each input that moved. A
near-tie that flips on some kernel is a finding about numerical
sensitivity: record the input and the kernel; do not compare with a
tolerance.
"""

import json
from pathlib import Path

import pytest

from conftest import criterion_10_inputs
from libags.bench import DEFAULT_GAP_HALFWIDTH, DEFAULT_N_PER_CLASS, DEFAULT_NOISE_SD, moons_world
from libags.data import make_two_moons
from libags.pipeline import PipelineConfig, run_selection

TABLE = Path(__file__).with_name("golden_selections.json")


def golden_inputs() -> list:
    """Each input as (name, generator, its arguments, config): bench seeds, the moons CLI inputs, the cost-profile pools."""
    bench = dict(n_per_class=DEFAULT_N_PER_CLASS, noise_sd=DEFAULT_NOISE_SD, gap_halfwidth=DEFAULT_GAP_HALFWIDTH)
    default, budgeted = PipelineConfig().as_dict(), PipelineConfig(max_budget=300).as_dict()
    return (
        [(f"bench-{s}", "moons_world", dict(bench, seed=s), default) for s in range(5)]
        + [(f"moons-cli-{s}", "make_two_moons", dict(n_per_class=1000, noise_sd=0.3, gap_halfwidth=0.55, seed=s), default) for s in range(3)]
        + [(f"criterion-10-{s}", "criterion_10_inputs", dict(M=2000, seed=s), budgeted) for s in range(3)]
    )


def selection(generator: str, args: dict, config: dict) -> list:
    """The ``selected`` list of the report on one input."""
    config = PipelineConfig.from_dict(config)
    if generator == "moons_world":
        return moons_world(config=config, **args).report.selected
    if generator == "make_two_moons":
        train, _, pool = make_two_moons(**args)
        return run_selection(train, pool, config).selected
    real, pool, external = criterion_10_inputs(**args)
    return run_selection(real, pool, config, external_proba=external).selected


# Missing, the table is empty and test_table_covers_every_input fails.
GOLDEN = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else []


@pytest.mark.parametrize("entry", GOLDEN, ids=[entry["input"] for entry in GOLDEN])
def test_selection_matches_the_table(entry):
    selected = selection(entry["generator"], entry["args"], entry["config"])
    assert (len(selected), selected) == (entry["m_hat"], entry["selected"])


def test_table_covers_every_input():
    assert [(e["input"], e["generator"], e["args"], e["config"]) for e in GOLDEN] == [tuple(i) for i in golden_inputs()]


if __name__ == "__main__":
    entries = []
    for name, generator, args, config in golden_inputs():
        selected = selection(generator, args, config)
        entries.append(dict(input=name, generator=generator, args=args, config=config, m_hat=len(selected), selected=selected))
    # One input per line, so a diff names the inputs whose selection moved.
    TABLE.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n", encoding="utf-8")
