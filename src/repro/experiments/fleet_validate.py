"""Statistical cross-validation of the two fleet fidelities
(``repro fleet-validate``).

The fleet engine ships two home models over one synthesized
population: the reduced-order ``fast`` model (tens of microseconds per
home) and the packet-level ``full`` scenario simulation (tens of
milliseconds per home through the warm-start pool).  Million-home
claims rest on the fast model, so this experiment quantifies how far
its *population statistics* sit from the packet-level ground truth.

Protocol: the same :class:`~repro.experiments.fleet.FleetConfig`
population (same seed, same shards, same homes) streams through both
fidelities via :func:`~repro.experiments.fleet.run_fleet`'s folding
engine; per testbed, the two runs are then compared on

* **decision-latency distributions** — a two-sample Kolmogorov-Smirnov
  statistic computed directly from the mergeable quantile sketches'
  bucket CDFs (:func:`~repro.obs.metrics.sketch_ks_distance`), against
  the large-sample 1% critical value;
* **outcome counts** — Pearson chi-squared (df=1, 1% critical value
  6.635) on the 2x2 contingency tables for false blocks vs resolved
  legitimate commands, blocked vs delivered attacks, and timeouts vs
  decisions.

A testbed *passes* when every statistic sits below its critical value.
A failing cell is a finding, not an error: it localizes exactly which
marginal of the reduced-order model has drifted from packet-level
behaviour (see EXPERIMENTS.md for interpretation guidance).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.reporting import fmt_percent, render_table
from repro.errors import WorkloadError
from repro.experiments.fleet import FleetConfig, FleetResult, run_fleet
from repro.experiments.synthesis import PopulationModel
from repro.obs.metrics import ks_critical_value, sketch_ks_distance

ALPHA = 0.01
# Chi-squared critical value, df=1, p=0.01 (no scipy dependency).
CHI2_CRITICAL_DF1 = 6.6348966010212145

# Full fidelity simulates whole scenarios per home: keep chunks small
# so multi-worker runs stay load-balanced.
FULL_CHUNK_SIZE = 8


def chi2_2x2(a_yes: int, a_no: int, b_yes: int, b_no: int) -> float:
    """Pearson chi-squared for a 2x2 contingency table (df=1).

    Rows are the two populations (fast, full); columns the outcome
    split (e.g. blocked / not blocked).  Degenerate tables — an empty
    margin, where the test is undefined — return 0.0: no evidence of
    difference.
    """
    row_a = a_yes + a_no
    row_b = b_yes + b_no
    col_yes = a_yes + b_yes
    col_no = a_no + b_no
    total = row_a + row_b
    if 0 in (row_a, row_b, col_yes, col_no):
        return 0.0
    numerator = total * float(a_yes * b_no - a_no * b_yes) ** 2
    return numerator / (float(row_a) * row_b * col_yes * col_no)


@dataclass
class TestbedComparison:
    """Fast-vs-full statistics for one testbed's sub-population."""

    testbed: str
    homes: int
    fast_counts: Dict[str, int]
    full_counts: Dict[str, int]
    ks_statistic: float
    ks_critical: float
    chi2_false_block: float
    chi2_blocked: float
    chi2_timeout: float

    @property
    def passed(self) -> bool:
        """Every statistic below its 1% critical value."""
        checks = [
            self.chi2_false_block <= CHI2_CRITICAL_DF1,
            self.chi2_blocked <= CHI2_CRITICAL_DF1,
            self.chi2_timeout <= CHI2_CRITICAL_DF1,
        ]
        # NaN KS (no resolved latencies on a side) is inconclusive,
        # not a failure; comparing nothing to nothing proves nothing.
        if self.ks_statistic == self.ks_statistic:
            checks.append(self.ks_statistic <= self.ks_critical)
        return all(checks)


def _compare_testbed(name: str, fast: FleetResult,
                     full: FleetResult) -> TestbedComparison:
    fast_counts = fast.accumulator.per_testbed[name]
    full_counts = full.accumulator.per_testbed[name]
    if fast_counts["homes"] != full_counts["homes"]:
        raise WorkloadError(
            f"population mismatch on {name!r}: fast saw "
            f"{fast_counts['homes']} homes, full {full_counts['homes']} — "
            f"the two runs must share one population")
    fast_sketch = fast.accumulator.sketches[name]
    full_sketch = full.accumulator.sketches[name]
    return TestbedComparison(
        testbed=name,
        homes=fast_counts["homes"],
        fast_counts=dict(fast_counts),
        full_counts=dict(full_counts),
        ks_statistic=sketch_ks_distance(fast_sketch, full_sketch),
        ks_critical=ks_critical_value(fast_sketch.count, full_sketch.count,
                                      alpha=ALPHA),
        chi2_false_block=chi2_2x2(
            fast_counts["false_blocks"],
            fast_counts["legit_commands"] - fast_counts["false_blocks"],
            full_counts["false_blocks"],
            full_counts["legit_commands"] - full_counts["false_blocks"],
        ),
        chi2_blocked=chi2_2x2(
            fast_counts["attacks_blocked"],
            fast_counts["attacks"] - fast_counts["attacks_blocked"],
            full_counts["attacks_blocked"],
            full_counts["attacks"] - full_counts["attacks_blocked"],
        ),
        chi2_timeout=chi2_2x2(
            fast_counts["timeouts"],
            fast_counts["decisions"] - fast_counts["timeouts"],
            full_counts["timeouts"],
            full_counts["decisions"] - full_counts["timeouts"],
        ),
    )


@dataclass
class FleetValidationResult:
    """Both fidelity runs plus the per-testbed comparison."""

    homes: int
    seed: int
    fast: FleetResult
    full: FleetResult
    comparisons: List[TestbedComparison] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(comparison.passed for comparison in self.comparisons)

    def render(self) -> str:
        """The validation table plus both fidelities' fleet tables."""
        def rate(counts: Dict[str, int], num: str, den: str) -> float:
            d = counts[den]
            return counts[num] / d if d else float("nan")

        rows = []
        for c in self.comparisons:
            ks_cell = ("—" if c.ks_statistic != c.ks_statistic else
                       f"{c.ks_statistic:.3f}/{c.ks_critical:.3f}")
            rows.append([
                c.testbed,
                c.homes,
                fmt_percent(rate(c.fast_counts, "false_blocks", "legit_commands")),
                fmt_percent(rate(c.full_counts, "false_blocks", "legit_commands")),
                f"{c.chi2_false_block:.2f}",
                fmt_percent(rate(c.fast_counts, "attacks_blocked", "attacks")),
                fmt_percent(rate(c.full_counts, "attacks_blocked", "attacks")),
                f"{c.chi2_blocked:.2f}",
                f"{c.chi2_timeout:.2f}",
                ks_cell,
                "pass" if c.passed else "FAIL",
            ])
        table = render_table(
            f"Fleet fidelity cross-validation: {self.homes} homes, "
            f"seed {self.seed} (fast vs full)",
            ["testbed", "homes", "fb fast", "fb full", "χ² fb",
             "blk fast", "blk full", "χ² blk", "χ² t/o", "KS D/crit",
             "verdict"],
            rows,
        )
        notes = [
            table,
            f"χ² critical (df=1, α={ALPHA:.0%}): {CHI2_CRITICAL_DF1:.2f}; "
            "KS over resolved decision-latency sketches, large-sample "
            f"α={ALPHA:.0%} critical shown per testbed.  A FAIL names the "
            "marginal where the reduced-order model departs from the "
            "packet-level simulation at this population size.",
            "",
            self.fast.render(),
            "",
            self.full.render(),
        ]
        return "\n".join(notes)

    def render_throughput(self) -> str:
        return (f"validated {self.homes} homes in {self.elapsed:.1f}s — "
                f"fast: {self.fast.render_throughput()}; "
                f"full: {self.full.render_throughput()}")


def run_fleet_validate(
    homes: int = 120,
    shards: int = 4,
    seed: int = 0,
    workers: int = 1,
    population: Optional[PopulationModel] = None,
    progress: bool = False,
) -> FleetValidationResult:
    """Stream one population through both fidelities and compare."""
    population = population if population is not None else PopulationModel()
    start = time.perf_counter()
    fast = run_fleet(
        FleetConfig(homes=homes, shards=shards, seed=seed,
                    fidelity="fast", population=population),
        workers=workers, progress=progress,
    )
    full = run_fleet(
        FleetConfig(homes=homes, shards=shards, seed=seed,
                    chunk_size=FULL_CHUNK_SIZE, fidelity="full",
                    population=population),
        workers=workers, progress=progress,
    )
    names = sorted(fast.accumulator.per_testbed)
    if names != sorted(full.accumulator.per_testbed):
        raise WorkloadError(
            f"population mismatch: fast covered {names}, full covered "
            f"{sorted(full.accumulator.per_testbed)}")
    comparisons = [_compare_testbed(name, fast, full) for name in names]
    return FleetValidationResult(
        homes=homes,
        seed=seed,
        fast=fast,
        full=full,
        comparisons=comparisons,
        elapsed=time.perf_counter() - start,
    )
