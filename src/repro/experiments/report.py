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
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.parallel import ExperimentEngine, ExperimentTask, TaskTiming


@dataclass
class ReportSection:
    name: str
    text: str
    elapsed: float


@dataclass
class ReproductionReport:
    sections: List[ReportSection] = field(default_factory=list)
    timings: List[TaskTiming] = field(default_factory=list)

    def render(self) -> str:
        """Render as paper-style text."""
        parts = ["VoiceGuard reproduction report", "=" * 31, ""]
        for section in self.sections:
            parts.append(f"--- {section.name} ({section.elapsed:.1f}s) ---")
            parts.append(section.text)
            parts.append("")
        return "\n".join(parts)

    def section(self, name: str) -> ReportSection:
        for section in self.sections:
            if section.name == name:
                return section
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Section producers — module-level so the pool can pickle them by name.
# Each returns the section's rendered text.
# ---------------------------------------------------------------------------

def _section_corpus() -> str:
    from repro.experiments.fig6 import corpus_report

    return corpus_report()


def _section_table1(seed: int) -> str:
    from repro.experiments.table1 import run_table1

    return run_table1(seed=seed).render()


def _section_rssi_table(testbed: str, seed: int, scale: float) -> str:
    from repro.experiments.rssi_tables import run_rssi_table

    return run_rssi_table(testbed, seed=seed, scale=scale).render_with_paper()


def _section_fig3(seed: int) -> str:
    from repro.experiments.fig3 import run_fig3

    return run_fig3(seed=seed).render()


def _section_fig4(seed: int) -> str:
    from repro.experiments.fig4 import run_fig4

    return run_fig4(seed=seed).render()


def _section_fig6(seed: int, scale: float) -> str:
    from repro.experiments.fig6 import run_fig6

    return run_fig6("echo", invocations=max(20, int(100 * scale)),
                    seed=seed).render()


def _section_fig7(seed: int, scale: float) -> str:
    from repro.experiments.fig7 import run_fig7

    return "\n".join(
        run_fig7(kind, invocations=max(30, int(100 * scale)), seed=seed).render()
        for kind in ("echo", "google"))


def _section_rssi_maps(seed: int) -> str:
    from repro.experiments.rssi_maps import run_rssi_map

    return "\n\n".join(
        run_rssi_map(tb, dep, seed=seed).render()
        for tb in ("house", "apartment", "office") for dep in (0, 1))


def _section_fig10(seed: int, scale: float) -> str:
    from repro.experiments.fig10 import run_fig10

    return run_fig10("echo", seed=seed,
                     test_reps=max(5, int(15 * scale))).render()


def _section_defense_matrix(seed: int, trials: int) -> str:
    from repro.experiments.ablation import run_defense_matrix

    return run_defense_matrix(seed=seed, trials_per_attack=trials,
                              legit_trials=trials).render()


def _section_floor_ablation(seed: int, scale: float) -> str:
    from repro.experiments.ablation import run_floor_ablation

    return run_floor_ablation(seed=seed, legit=max(15, int(50 * scale)),
                              malicious=max(10, int(40 * scale))).render()


def _section_signature_ablation(seed: int, scale: float) -> str:
    from repro.experiments.ablation import run_signature_ablation

    return run_signature_ablation(seed=seed,
                                  commands=max(8, int(25 * scale))).render()


def _section_firewall_comparison(seed: int, scale: float) -> str:
    from repro.experiments.ablation import run_firewall_comparison

    return run_firewall_comparison(seed=seed,
                                   commands=max(10, int(25 * scale))).render()


def _section_hold_endurance(seed: int) -> str:
    from repro.experiments.hold_endurance import run_hold_endurance

    return run_hold_endurance(holds=(2.0, 10.0, 30.0), seed=seed).render()


SectionSpec = Tuple[str, Callable[..., str], Dict[str, object]]


def report_section_specs(scale: float, seed: int) -> List[SectionSpec]:
    """Every report section as (name, producer, kwargs), in print order."""
    trials = max(3, int(8 * scale))
    specs: List[SectionSpec] = [
        ("corpus statistics (§V-A2)", _section_corpus, {}),
        ("Table I (traffic recognition)", _section_table1, dict(seed=seed)),
    ]
    for testbed, table in (("house", "Table II"), ("apartment", "Table III"),
                           ("office", "Table IV")):
        specs.append((f"{table} ({testbed})", _section_rssi_table,
                      dict(testbed=testbed, seed=seed, scale=scale)))
    specs.extend([
        ("Figure 3 (interaction spikes)", _section_fig3, dict(seed=seed)),
        ("Figure 4 (traffic handler cases)", _section_fig4, dict(seed=seed)),
        ("Figure 6 (delay cases)", _section_fig6, dict(seed=seed, scale=scale)),
        ("Figure 7 (query latency)", _section_fig7, dict(seed=seed, scale=scale)),
        ("Figures 8-9 (RSSI maps)", _section_rssi_maps, dict(seed=seed)),
        ("Figure 10 (floor traces)", _section_fig10, dict(seed=seed, scale=scale)),
        ("ablation: defense matrix", _section_defense_matrix,
         dict(seed=seed, trials=trials)),
        ("ablation: floor tracking", _section_floor_ablation,
         dict(seed=seed, scale=scale)),
        ("ablation: AVS signatures", _section_signature_ablation,
         dict(seed=seed, scale=scale)),
        ("ablation: firewall comparison", _section_firewall_comparison,
         dict(seed=seed, scale=scale)),
        ("ablation: hold endurance", _section_hold_endurance, dict(seed=seed)),
    ])
    return specs


def generate_report(
    scale: float = 0.3,
    seed: int = 3,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 1,
    use_cache: bool = False,
) -> ReproductionReport:
    """Regenerate every paper table and figure.

    ``scale`` shrinks the workload sizes of the 7-day tables (1.0 =
    paper scale, ~30 s of wall-clock; 0.3 ≈ a third of the commands in
    a few seconds).  ``workers`` regenerates sections on a process
    pool; the section texts are identical to a serial run.
    ``progress``, when given, receives the engine's per-section
    "running"/"finished" lines (the CLI sends them to stderr).
    """
    specs = report_section_specs(scale, seed)
    tasks = [ExperimentTask(fn=fn, kwargs=kwargs, label=name)
             for name, fn, kwargs in specs]
    engine = ExperimentEngine(workers=workers, use_cache=use_cache,
                              progress=progress)
    texts = engine.run(tasks)

    elapsed_by_label = {timing.label: timing.elapsed for timing in engine.timings}
    report = ReproductionReport(timings=list(engine.timings))
    for (name, _, _), text in zip(specs, texts):
        report.sections.append(
            ReportSection(name, text, elapsed_by_label.get(name, 0.0)))
    return report
