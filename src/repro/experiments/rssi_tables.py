"""Tables II-IV: the RSSI-based method in the three testbeds.

Each table is one testbed; each of its four cells is a (speaker,
deployment location) pair driven through a 7-day workload of owner
commands and replayed attacks (see :mod:`repro.experiments.workload`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import fmt_percent, render_table
from repro.core.config import VoiceGuardConfig
from repro.experiments.parallel import ExperimentEngine, ExperimentTask
from repro.experiments.runner import RssiExperimentResult, check_scale, run_rssi_experiment

# Paper-reported cell values for reference printing: per testbed, per
# (speaker, location): (legit correct/total, malicious correct/total).
PAPER_TABLES: Dict[str, Dict[Tuple[str, int], Tuple[str, str]]] = {
    "house": {
        ("echo", 0): ("89 / 91", "69 / 69"),
        ("echo", 1): ("100 / 103", "78 / 78"),
        ("google", 0): ("90 / 94", "65 / 65"),
        ("google", 1): ("82 / 86", "63 / 63"),
    },
    "apartment": {
        ("echo", 0): ("75 / 78", "59 / 59"),
        ("echo", 1): ("86 / 88", "64 / 65"),
        ("google", 0): ("76 / 80", "57 / 57"),
        ("google", 1): ("93 / 95", "50 / 50"),
    },
    "office": {
        ("echo", 0): ("82 / 85", "47 / 47"),
        ("echo", 1): ("91 / 94", "52 / 52"),
        ("google", 0): ("89 / 90", "50 / 50"),
        ("google", 1): ("89 / 91", "51 / 51"),
    },
}

# Command counts per cell, matching the paper's totals.
PAPER_COUNTS: Dict[str, Dict[Tuple[str, int], Tuple[int, int]]] = {
    "house": {
        ("echo", 0): (91, 69), ("echo", 1): (103, 78),
        ("google", 0): (94, 65), ("google", 1): (86, 63),
    },
    "apartment": {
        ("echo", 0): (78, 59), ("echo", 1): (88, 65),
        ("google", 0): (80, 57), ("google", 1): (95, 50),
    },
    "office": {
        ("echo", 0): (85, 47), ("echo", 1): (94, 52),
        ("google", 0): (90, 50), ("google", 1): (91, 51),
    },
}

TABLE_TITLES = {
    "house": "Table II: RSSI method in the first testbed (two-floor house)",
    "apartment": "Table III: RSSI method in the second testbed (two-bedroom apartment)",
    "office": "Table IV: RSSI method in the third testbed (office)",
}


@dataclass
class RssiTableResult:
    """All four cells of one paper table."""

    testbed: str
    cells: List[RssiExperimentResult]

    def render(self) -> str:
        """Render as paper-style text."""
        rows = []
        for cell in self.cells:
            row = cell.row()
            rows.append([
                row["case"],
                row["legitimate (N)"],
                row["malicious (P)"],
                row["accuracy"],
                row["precision"],
                row["recall"],
            ])
        return render_table(
            TABLE_TITLES[self.testbed],
            ["case", "legitimate (N)", "malicious (P)", "accuracy", "precision", "recall"],
            rows,
        )

    def render_with_paper(self) -> str:
        """Side-by-side with the paper's reported cells."""
        rows = []
        for cell in self.cells:
            key = self._cell_key(cell)
            paper_legit, paper_mal = PAPER_TABLES[self.testbed].get(key, ("?", "?"))
            rows.append([
                cell.scenario_name,
                f"{cell.legit_correct} / {cell.legit_total}",
                paper_legit,
                f"{cell.malicious_correct} / {cell.malicious_total}",
                paper_mal,
                fmt_percent(cell.matrix.accuracy),
            ])
        return render_table(
            TABLE_TITLES[self.testbed] + "  (measured vs paper)",
            ["case", "legit (measured)", "legit (paper)",
             "malicious (measured)", "malicious (paper)", "accuracy"],
            rows,
        )

    @staticmethod
    def _cell_key(cell: RssiExperimentResult) -> Tuple[str, int]:
        _, speaker, loc = cell.scenario_name.split("/")
        return (speaker, int(loc[-1]) - 1)


def run_rssi_table(
    testbed: str,
    seed: int = 0,
    config: Optional[VoiceGuardConfig] = None,
    scale: float = 1.0,
    workers: int = 1,
    use_cache: bool = False,
) -> RssiTableResult:
    """Run all four cells of one table.

    ``scale`` shrinks the command counts proportionally for quick runs
    (tests use ~0.3; benchmarks use 1.0 = the paper's counts).  The
    cells are independent runs; ``workers`` fans them out over a
    process pool with identical results (each cell's seed is fixed by
    its arguments, not by execution order).
    """
    check_scale(scale)
    tasks = []
    for speaker in ("echo", "google"):
        for deployment in (0, 1):
            legit, malicious = PAPER_COUNTS[testbed][(speaker, deployment)]
            tasks.append(ExperimentTask(
                fn=run_rssi_experiment,
                args=(testbed, speaker, deployment),
                kwargs=dict(
                    seed=seed + deployment + (10 if speaker == "google" else 0),
                    legit_count=max(5, int(round(legit * scale))),
                    malicious_count=max(5, int(round(malicious * scale))),
                    config=config,
                ),
                label=f"rssi/{testbed}/{speaker}/loc{deployment + 1}",
            ))
    engine = ExperimentEngine(workers=workers, use_cache=use_cache)
    cells = engine.run(tasks)
    return RssiTableResult(testbed=testbed, cells=cells)
