"""Accessors for the bundled reference data.

The package ships the raw record of an 8192-shot cloud-simulator run of the
8-state circuit: ten input-state sets (d0 is the recorded run's inputs, d1
to d9 are the additional sets), the run's measurement counts, its published
per-pair estimates, and the ancilla-outcome tables accompanying it. Known
transcription defects are annotated in the files themselves.
"""

from __future__ import annotations

import json
from importlib import resources

from .estimation import CountsTable
from .fileio import parse_states, read_counts, read_reference_estimates
from .states import StateEnsemble

ENSEMBLE_IDS = tuple(range(10))


def _data(name: str):
    return resources.files("multiswap.data").joinpath(name)


def load_ensemble(index: int) -> StateEnsemble:
    """Bundled input set d0..d9 (d0 is the recorded reference run's input)."""
    if index not in ENSEMBLE_IDS:
        raise ValueError(f"ensemble index must be in {ENSEMBLE_IDS}")
    doc = json.loads(_data(f"ensembles/d{index}.json").read_text())
    return parse_states(doc)


def reference_counts() -> CountsTable:
    """The recorded run's measurement counts (duplicates already merged)."""
    with resources.as_file(_data("reference_counts.txt")) as path:
        return read_counts(path)


def reference_estimates() -> dict[tuple[int, int], float]:
    """The recorded run's published per-pair estimates."""
    with resources.as_file(_data("reference_estimates.csv")) as path:
        return read_reference_estimates(path)


def reference_tables() -> dict:
    """Outcome tables accompanying the recorded run, with defect notes."""
    return json.loads(_data("reference_tables.json").read_text())


def reference_table_rows(name: str) -> dict[str, tuple[int, ...]]:
    """Rows of one reference table ('new_n4', 'new_n8', or 'san_n4')."""
    doc = reference_tables()
    if name not in doc or name == "note":
        raise ValueError(f"unknown reference table {name!r}")
    return {outcome: tuple(row) for outcome, row in doc[name]["rows"].items()}
