"""One-call reproduction report.

``generate_report`` runs every experiment (optionally at reduced scale)
and concatenates the rendered tables and figures into a single text
report — the programmatic counterpart of running the whole benchmark
suite.  Used by ``examples/full_reproduction.py``.

Sections are independent of one another, so the report fans them out
through the :mod:`repro.experiments.parallel` engine: ``workers=1``
(the default) runs them serially in the order below, ``workers=N``
regenerates them concurrently with identical section text (only the
per-section wall-clock annotations differ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.experiments.ablation import (
    run_defense_matrix,
    run_firewall_comparison,
    run_floor_ablation,
    run_signature_ablation,
)
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig6 import corpus_report, run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig10 import run_fig10
from repro.experiments.hold_endurance import run_hold_endurance
from repro.experiments.parallel import ExperimentEngine, ExperimentTask, TaskTiming
from repro.experiments.rssi_maps import run_rssi_map
from repro.experiments.rssi_tables import run_rssi_table
from repro.experiments.runner import check_scale
from repro.experiments.table1 import run_table1


@dataclass
class ReportSection:
    name: str
    text: str


@dataclass
class ReproductionReport:
    sections: List[ReportSection] = field(default_factory=list)
    timings: List[TaskTiming] = field(default_factory=list)

    def render(self) -> str:
        """Render as paper-style text: the same for the same scale and
        seed, whatever the worker count (wall times are in
        ``timings``)."""
        parts = ["VoiceGuard reproduction report", "=" * 31, ""]
        for section in self.sections:
            parts.append(f"--- {section.name} ---")
            parts.append(section.text)
            parts.append("")
        return "\n".join(parts)

    def section(self, name: str) -> ReportSection:
        for section in self.sections:
            if section.name == name:
                return section
        raise KeyError(name)


class SectionSpec(NamedTuple):
    """One report section: ``run(**kwargs)`` for each kwargs in
    ``calls``, each result rendered by its ``method`` (``None``: ``run``
    returns the text itself), joined by ``sep``."""

    name: str
    run: Callable[..., object]
    calls: Tuple[Dict[str, object], ...]
    method: Optional[str] = "render"
    sep: str = "\n"


def render_section(run: Callable[..., object], calls: Tuple[Dict[str, object], ...],
                   method: Optional[str] = "render", sep: str = "\n") -> str:
    """A section's text (see :class:`SectionSpec`); module-level so the
    pool can pickle it by name."""
    results = [run(**kwargs) for kwargs in calls]
    return sep.join(result if method is None else getattr(result, method)()
                    for result in results)


def report_section_specs(scale: float, seed: int) -> List[SectionSpec]:
    """Every report section, in print order."""
    trials = max(3, int(8 * scale))
    return [
        SectionSpec("corpus statistics (§V-A2)", corpus_report, ({},), None),
        SectionSpec("Table I (traffic recognition)", run_table1, (dict(seed=seed),)),
        *(SectionSpec(f"{table} ({testbed})", run_rssi_table,
                      (dict(testbed=testbed, seed=seed, scale=scale),),
                      "render_with_paper")
          for testbed, table in (("house", "Table II"), ("apartment", "Table III"),
                                 ("office", "Table IV"))),
        SectionSpec("Figure 3 (interaction spikes)", run_fig3, (dict(seed=seed),)),
        SectionSpec("Figure 4 (traffic handler cases)", run_fig4, (dict(seed=seed),)),
        SectionSpec("Figure 6 (delay cases)", run_fig6,
                    (dict(speaker_kind="echo", invocations=max(20, int(100 * scale)),
                          seed=seed),)),
        SectionSpec("Figure 7 (query latency)", run_fig7,
                    tuple(dict(speaker_kind=kind, invocations=max(30, int(100 * scale)),
                               seed=seed) for kind in ("echo", "google"))),
        SectionSpec("Figures 8-9 (RSSI maps)", run_rssi_map,
                    tuple(dict(testbed_name=testbed, deployment=deployment, seed=seed)
                          for testbed in ("house", "apartment", "office")
                          for deployment in (0, 1)),
                    sep="\n\n"),
        SectionSpec("Figure 10 (floor traces)", run_fig10,
                    (dict(seed=seed, test_reps=max(5, int(15 * scale))),)),
        SectionSpec("ablation: defense matrix", run_defense_matrix,
                    (dict(seed=seed, trials_per_attack=trials, legit_trials=trials),)),
        SectionSpec("ablation: floor tracking", run_floor_ablation,
                    (dict(seed=seed, legit=max(15, int(50 * scale)),
                          malicious=max(10, int(40 * scale))),)),
        SectionSpec("ablation: AVS signatures", run_signature_ablation,
                    (dict(seed=seed, commands=max(8, int(25 * scale))),)),
        SectionSpec("ablation: firewall comparison", run_firewall_comparison,
                    (dict(seed=seed, commands=max(10, int(25 * scale))),)),
        SectionSpec("ablation: hold endurance", run_hold_endurance,
                    (dict(holds=(2.0, 10.0, 30.0), seed=seed),)),
    ]


def generate_report(
    scale: float = 0.3,
    seed: int = 3,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
) -> ReproductionReport:
    """Regenerate every paper table and figure.

    ``scale`` shrinks the workload sizes of the 7-day tables (1.0 =
    paper scale, ~30 s of wall-clock; 0.3 ≈ a third of the commands in
    a few seconds).  ``workers`` regenerates sections on a process
    pool; the section texts are identical to a serial run.
    ``progress``, when given, receives the engine's per-section
    "running"/"finished" lines (the CLI sends them to stderr).
    """
    check_scale(scale)
    specs = report_section_specs(scale, seed)
    tasks = [ExperimentTask(fn=render_section, args=tuple(spec[1:]), label=spec.name)
             for spec in specs]
    engine = ExperimentEngine(workers=workers, progress=progress)
    texts = engine.run(tasks)

    return ReproductionReport(
        sections=[ReportSection(spec.name, text) for spec, text in zip(specs, texts)],
        timings=list(engine.timings))
