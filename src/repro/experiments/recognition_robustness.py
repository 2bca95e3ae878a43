"""Recognizer robustness under traffic morphing (``repro recognition-robustness``).

The paper's traffic recognizer is a *signature* matcher: it keys on
exact record lengths at exact positions.  A network-level adversary who
pads or reshuffles the flow shape (see :mod:`repro.attacks.morphing`)
never touches a payload byte yet erases exactly those keys.  This
experiment measures that arms race as a matcher × adversary × speaker
accuracy grid:

* every named recognizer (``signature`` plus the trainable ``knn``
  and ``mlp`` from :mod:`repro.core.recognizers`) against every morphing
  adversary, both speakers;
* *adaptive* rows: the trainable recognizers retrained on traces morphed
  by the same adversary they are evaluated under — the defender's
  answer, and the experiment's headline (the signature matcher loses
  tens of points under padding, the retrained learner recovers to
  within a few points of its clean baseline).

Scoring is binary per evaluation window: did the recognizer call the
window a command or not?  ``UNKNOWN`` therefore counts as correct on
non-command windows (the guard holds nothing) and as a miss on command
windows (an attack sails through unheld).  Google Home cells evaluate
*command windows only* (recall): the paper's Google matcher flags every
burst as a command, so on a mixed set its "accuracy" would only measure
the synthetic noise ratio — and trivially, that matcher is morph-proof
at 100% recall, which the table shows.

Cells are pure functions of their arguments fanned out over the
parallel :class:`~repro.experiments.parallel.ExperimentEngine`; the
rendered table is byte-identical at any ``--workers`` count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.reporting import fmt_percent, render_table
from repro.attacks.morphing import MORPHERS, create_morpher
from repro.core.recognition import TrafficClass
from repro.core.recognizers import (
    RECOGNIZERS,
    morph_sample,
    synth_windows,
    train_window_recognizer,
)
from repro.errors import WorkloadError
from repro.experiments.parallel import ExperimentEngine, ExperimentTask, derive_seed
from repro.sim.random import RngHub, generator

SPEAKERS = ("echo", "google")
RECOGNIZER_KINDS = tuple(RECOGNIZERS)
#: "none" is the clean baseline column; the rest are morphing adversaries.
ADVERSARIES = ("none", *MORPHERS)
#: Recognizers that can retrain on morphed traces (adaptive rows).
ADAPTIVE_KINDS = ("knn", "mlp")

TRAIN_WINDOWS = 30  # training windows per class (full grid)
EVAL_WINDOWS = 40  # evaluation windows per class (full grid)

# (speakers, recognizers, adversaries, adaptive kinds, training and
# evaluation windows per class): the full grid, and the echo corners
# the CI recognition-smoke job runs.
GRID = (SPEAKERS, RECOGNIZER_KINDS, ADVERSARIES, ADAPTIVE_KINDS,
        TRAIN_WINDOWS, EVAL_WINDOWS)
SMOKE_GRID = (("echo",), ("signature", "knn"), ("none", "pad-fixed"), ("knn",),
              12, 16)


@dataclass
class RecognitionCell:
    """One (speaker, recognizer, adversary) accuracy measurement."""

    speaker: str
    recognizer: str  # RECOGNIZERS name; adaptive rows get a "+retrain" label
    adversary: str
    adaptive: bool
    windows: int
    correct: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.windows if self.windows else 0.0

    @property
    def label(self) -> str:
        return f"{self.recognizer}+retrain" if self.adaptive else self.recognizer

    def row(self) -> List[object]:
        return [
            self.speaker,
            self.label,
            self.adversary,
            self.windows,
            self.correct,
            fmt_percent(self.accuracy),
        ]


def run_recognition_cell(
    speaker_kind: str,
    recognizer_kind: str,
    adversary: str = "none",
    adaptive: bool = False,
    seed: int = 0,
    train_windows: int = TRAIN_WINDOWS,
    eval_windows: int = EVAL_WINDOWS,
) -> RecognitionCell:
    """Train one recognizer and score it on morphed evaluation windows.

    Seeds are derived so that *within one grid seed* every cell of a
    speaker shares the same training corpus and the same pre-morph
    evaluation windows — columns differ only by the adversary's
    reshaping, rows only by the recognizer.
    """
    if adaptive and adversary == "none":
        raise WorkloadError("adaptive cells need a morphing adversary")

    # Training: its own hub, keyed by speaker only, so every recognizer
    # kind (and every adversary column) trains from identical draws.
    hub = RngHub(derive_seed(seed, "recognition.train", speaker_kind))
    train_morpher = create_morpher(adversary) if adaptive else None
    recognizer = train_window_recognizer(
        recognizer_kind, speaker_kind, hub,
        train_per_class=train_windows, morpher=train_morpher,
    )

    # Evaluation: one pre-morph window set per speaker, morphed by the
    # column's adversary with an adversary-owned generator.
    eval_rng = generator(
        derive_seed(seed, "recognition.eval", speaker_kind))
    samples = synth_windows(speaker_kind, eval_rng, eval_windows)
    if speaker_kind == "google":
        # Recall-only (see module docstring).
        samples = [s for s in samples if s.is_command]
    if adversary != "none":
        morph_rng = generator(
            derive_seed(seed, "recognition.morph", speaker_kind, adversary))
        morpher = create_morpher(adversary)
        samples = [morph_sample(s, morpher, morph_rng) for s in samples]

    correct = 0
    for sample in samples:
        decided = recognizer.predict_window(sample.lengths, sample.offsets)
        if (decided is TrafficClass.COMMAND) == sample.is_command:
            correct += 1
    return RecognitionCell(
        speaker=speaker_kind,
        recognizer=recognizer_kind,
        adversary=adversary,
        adaptive=adaptive,
        windows=len(samples),
        correct=correct,
    )


@dataclass
class RecognitionRobustnessResult:
    """The full grid, in submission order."""

    cells: List[RecognitionCell]
    seed: int

    def cell(self, speaker: str, recognizer: str, adversary: str,
             adaptive: bool = False) -> RecognitionCell:
        """Look one cell up (tests and the headline use this)."""
        for cell in self.cells:
            if (cell.speaker == speaker and cell.recognizer == recognizer
                    and cell.adversary == adversary
                    and cell.adaptive == adaptive):
                return cell
        raise WorkloadError(
            f"no cell ({speaker}, {recognizer}, {adversary}, "
            f"adaptive={adaptive}) in this grid")

    def worst_morph(self, speaker: str,
                    recognizer: str) -> Tuple[str, float]:
        """The adversary that hurts ``recognizer`` most, and its accuracy."""
        morphs = [c for c in self.cells
                  if c.speaker == speaker and c.recognizer == recognizer
                  and not c.adaptive and c.adversary != "none"]
        if not morphs:
            raise WorkloadError(f"no morphed cells for {recognizer!r}")
        worst = min(morphs, key=lambda c: (c.accuracy, c.adversary))
        return worst.adversary, worst.accuracy

    def render(self) -> str:
        table = render_table(
            "Recognition robustness: matcher x traffic-morphing adversary",
            ["speaker", "recognizer", "adversary", "windows", "correct",
             "accuracy"],
            [cell.row() for cell in self.cells],
        )
        lines = [table, f"seed {self.seed}; {len(self.cells)} cells"]
        try:
            clean = self.cell("echo", "signature", "none")
            adversary, morphed = self.worst_morph("echo", "signature")
            lines.append(
                f"signature matcher on echo: {fmt_percent(clean.accuracy)} "
                f"clean -> {fmt_percent(morphed)} under {adversary} "
                f"({(clean.accuracy - morphed) * 100:.0f} points lost)"
            )
            for kind in ADAPTIVE_KINDS:
                try:
                    base = self.cell("echo", kind, "none")
                    retrained = self.cell("echo", kind, adversary,
                                          adaptive=True)
                except WorkloadError:
                    continue
                lines.append(
                    f"{kind}+retrain on echo under {adversary}: "
                    f"{fmt_percent(retrained.accuracy)} vs "
                    f"{fmt_percent(base.accuracy)} clean baseline "
                    f"({abs(base.accuracy - retrained.accuracy) * 100:.0f} "
                    "points apart)"
                )
        except WorkloadError:
            pass  # smoke grids may omit the headline cells
        lines.append(
            "scoring: binary command-vs-not per window (UNKNOWN holds "
            "nothing, so it is correct on non-commands); google cells "
            "score command recall only — the paper's google matcher "
            "flags every burst, making it trivially morph-proof."
        )
        return "\n".join(lines)


def run_recognition_robustness(
    seed: int = 0,
    smoke: bool = False,
    workers: int = 1,
) -> RecognitionRobustnessResult:
    """Run the grid through the parallel engine.

    The full grid (:data:`GRID`) is every recognizer × every adversary
    × both speakers plus the adaptive (retrain-on-morph) rows — 46
    cells.  ``smoke`` runs :data:`SMOKE_GRID`, the echo corners CI
    exercises (5 cells).
    """
    (speakers, recognizers, adversaries, adaptive_kinds,
     per_class_train, per_class_eval) = SMOKE_GRID if smoke else GRID
    tasks = []

    def add(speaker: str, kind: str, adversary: str, adaptive: bool) -> None:
        suffix = "+retrain" if adaptive else ""
        tasks.append(ExperimentTask(
            fn=run_recognition_cell,
            args=(speaker, kind, adversary, adaptive),
            kwargs=dict(
                seed=seed,
                train_windows=per_class_train,
                eval_windows=per_class_eval,
            ),
            label=f"recognition/{speaker}/{kind}{suffix}/{adversary}",
        ))

    for speaker in speakers:
        for adversary in adversaries:
            for kind in recognizers:
                add(speaker, kind, adversary, adaptive=False)
    morphs = [a for a in adversaries if a != "none"]
    for speaker in speakers:
        for adversary in morphs:
            for kind in adaptive_kinds:
                add(speaker, kind, adversary, adaptive=True)

    engine = ExperimentEngine(workers=workers)
    cells = engine.run(tasks)
    return RecognitionRobustnessResult(cells=list(cells), seed=seed)
