"""Shared helpers for the table harnesses: result persistence + rendering."""
from __future__ import annotations

import json
import os
from typing import Any

#: Where table rows go unless ``REPRO_RESULTS_DIR`` names another directory.
DEFAULT_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "../../../results")


def results_dir() -> str:
    """The results directory, read from ``REPRO_RESULTS_DIR`` at each call."""
    return os.environ.get("REPRO_RESULTS_DIR", DEFAULT_RESULTS_DIR)


def save_results(name: str, payload: Any) -> str:
    """Write a table's measured rows to ``<results_dir()>/<name>.json``."""
    out = results_dir()
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{name}.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=str)
    return path


def render_rows(rows: list[dict], columns: list[str]) -> str:
    """Markdown table for a list of row dicts."""
    head = "| " + " | ".join(columns) + " |"
    sep = "|" + "|".join("---" for _ in columns) + "|"
    body = [
        "| " + " | ".join(_fmt(r.get(c, "")) for c in columns) + " |" for r in rows
    ]
    return "\n".join([head, sep] + body)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)
