"""Result tables for batch runs: one row per (problem, n)."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Union

from .geometry import format_radius

CSV_COLUMNS = (
    "problem",
    "f_count",
    "n",
    "best_radius",
    "total_time_s",
    "replication_of_best",
    "seed",
)


@dataclass
class ResultRow:
    problem: str
    f_count: Optional[int]
    n: int
    best_radius: float
    total_time_s: float
    replication_of_best: int
    seed: int


def write_results_csv(rows: list[ResultRow], path: Union[str, Path]) -> None:
    """CSV table; the radius column carries the truncated 8-place form."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.problem,
                    "" if row.f_count is None else row.f_count,
                    row.n,
                    format_radius(row.best_radius),
                    f"{row.total_time_s:.3f}",
                    row.replication_of_best,
                    row.seed,
                ]
            )


def write_results_json(rows: list[ResultRow], path: Union[str, Path]) -> None:
    """JSON table with the radius at full precision."""
    doc = [asdict(row) for row in rows]
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
