"""Learned window recognizers (ROADMAP: learned traffic recognition).

The paper's recognizer is a hand-built signature matcher over packet
lengths (:mod:`repro.core.recognition`).  *Fingerprinting Encrypted
Voice Traffic on Smart Speakers with Deep Learning* (PAPERS.md) shows
that trained classifiers over length/timing sequences dominate such
signatures — and survive the padding/morphing attacks that defeat them
(*Deep Adversarial Learning on Google Home devices*).  This module
provides that escalation without heavy ML dependencies:

* :func:`extract_features` — a fixed-dimension float64 feature vector
  per spike window.  The length aggregates are computed from integer
  accumulations (counts, sums, bucket tallies), so they are *bit-exactly*
  invariant under any permutation of the window's lengths — the property
  ``tests/test_recognition_learning.py`` pins with Hypothesis.
* :class:`KnnRecognizer` / :class:`MlpRecognizer` — numpy-only trainable
  recognizers with deterministic training (k-NN with stable tie-breaks;
  a tiny full-batch-gradient-descent MLP whose init draws from a named
  :class:`~repro.sim.random.RngHub` stream).
* :class:`SignatureRecognizer` — the built-in matcher wrapped in the
  same pluggable interface, so experiments sweep all three by name via
  the :data:`RECOGNIZERS` registry.
* :func:`train_window_recognizer` — per-speaker training from corpus
  traces, drawing only from dedicated ``recognition.train.*`` streams.

Online semantics: a learned recognizer decides only when the spike
ends (every record of a pending window stays held until the
``CLASSIFICATION_TIMEOUT`` fires), unlike the signature matcher's
seven-packet incremental decision.  That is the latency price of
length-agnostic recognition, and it is paid only when a learned
recognizer is installed — the default signature path is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.events import TrafficClass
from repro.core.registry import PluginRegistry
from repro.errors import WorkloadError
from repro.sim.random import RngHub, uniform

# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

# Length-bucket edges (bytes): control chatter, small streaming records,
# mid-size phase records, large records, near-MTU audio upload.
LENGTH_BUCKETS = (100, 300, 700, 1200)

# First-k packet lengths appended verbatim (the signature matcher's view).
HEAD_LEN = 5

FEATURE_NAMES: Tuple[str, ...] = (
    # -- order-invariant length aggregates (integer accumulations) --
    "count",
    "total_kb",
    "mean_len",
    "std_len",
    "min_len",
    "max_len",
    "frac_lt_100",
    "frac_100_300",
    "frac_300_700",
    "frac_700_1200",
    "frac_ge_1200",
    # -- timing (functions of the offsets alone) --
    "duration",
    "mean_gap",
    "max_gap",
    "rate",
    # -- stream-order head --
    "head_0",
    "head_1",
    "head_2",
    "head_3",
    "head_4",
)

FEATURE_DIM = len(FEATURE_NAMES)

# Features at indices [0, PERMUTATION_INVARIANT) are bit-exactly
# unchanged by any permutation of the window's lengths (offsets fixed):
# the aggregates reduce over integer sums/counts and the timing block
# never reads a length.  Only the head block is order-sensitive.
PERMUTATION_INVARIANT = FEATURE_DIM - HEAD_LEN


def extract_features(lengths: Sequence[int],
                     offsets: Sequence[float]) -> np.ndarray:
    """One window's ``(FEATURE_DIM,)`` float64 feature vector.

    ``lengths`` are the window's application-data record lengths in
    arrival order; ``offsets`` the matching arrival times (seconds,
    any origin — only differences matter).  Aggregates are accumulated
    in exact integer arithmetic before the final float conversion, so
    reordering ``lengths`` cannot perturb them even in the last bit.
    """
    n = len(lengths)
    if n == 0:
        raise WorkloadError("cannot featurize an empty window")
    if len(offsets) != n:
        raise WorkloadError(
            f"lengths/offsets mismatch: {n} vs {len(offsets)}")
    total = 0
    total_sq = 0
    lo = hi = int(lengths[0])
    buckets = [0] * (len(LENGTH_BUCKETS) + 1)
    for raw in lengths:
        value = int(raw)
        total += value
        total_sq += value * value
        if value < lo:
            lo = value
        if value > hi:
            hi = value
        for slot, edge in enumerate(LENGTH_BUCKETS):
            if value < edge:
                buckets[slot] += 1
                break
        else:
            buckets[-1] += 1
    mean = total / n
    variance = max(total_sq / n - mean * mean, 0.0)

    duration = float(offsets[-1]) - float(offsets[0])
    if duration < 0.0:
        raise WorkloadError("window offsets must be non-decreasing")
    if n > 1:
        max_gap = max(float(offsets[i + 1]) - float(offsets[i])
                      for i in range(n - 1))
        mean_gap = duration / (n - 1)
    else:
        max_gap = 0.0
        mean_gap = 0.0
    rate = n / (duration + 1e-3)

    features = np.empty(FEATURE_DIM, dtype=np.float64)
    features[0] = float(n)
    features[1] = total / 1000.0
    features[2] = mean
    features[3] = float(np.sqrt(variance))
    features[4] = float(lo)
    features[5] = float(hi)
    for slot in range(len(LENGTH_BUCKETS) + 1):
        features[6 + slot] = buckets[slot] / n
    features[11] = duration
    features[12] = mean_gap
    features[13] = max_gap
    features[14] = rate
    for slot in range(HEAD_LEN):
        features[15 + slot] = float(lengths[slot]) if slot < n else 0.0
    return features


# ---------------------------------------------------------------------------
# Training samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowSample:
    """One labelled spike window (lengths + offsets + ground truth)."""

    lengths: Tuple[int, ...]
    offsets: Tuple[float, ...]
    label: str  # "command" | "response" | "noise"

    @property
    def is_command(self) -> bool:
        """Whether the window carries a voice command."""
        return self.label == "command"


def _sample_from_records(records, label: str) -> WindowSample:
    return WindowSample(
        lengths=tuple(int(r.length) for r in records),
        offsets=tuple(float(r.offset) for r in records),
        label=label,
    )


def synth_windows(speaker_kind: str, rng: np.random.Generator,
                  per_class: int) -> List[WindowSample]:
    """``per_class`` command + ``per_class`` non-command windows.

    Windows come from the same traffic models the simulated speakers
    emit (:mod:`repro.speakers.interaction`), with command durations
    sampled from the paper's corpora — the offline equivalent of
    capturing labelled traces at the guard's tap.  Echo negatives are
    phase-2 response spikes; Google negatives are synthetic background
    drizzle (the Mini's command connections are on-demand, so its real
    negatives are non-speech noise, not responses).
    """
    from repro.audio.commands import alexa_corpus, google_corpus
    from repro.audio.speech import full_utterance_duration
    from repro.speakers.interaction import EchoTrafficModel, GoogleTrafficModel

    samples: List[WindowSample] = []
    if speaker_kind == "echo":
        corpus = alexa_corpus()
        model = EchoTrafficModel(rng, anomalous_rate=0.0)
        for _ in range(per_class):
            command = corpus.sample(rng)
            duration = full_utterance_duration(command, rng)
            script = model.command_phase(duration)
            samples.append(_sample_from_records(script.records, "command"))
        for _ in range(per_class):
            samples.append(_sample_from_records(model.response_spike(),
                                                "response"))
    elif speaker_kind == "google":
        corpus = google_corpus()
        model = GoogleTrafficModel(rng)
        for _ in range(per_class):
            command = corpus.sample(rng)
            duration = full_utterance_duration(command, rng)
            samples.append(_sample_from_records(
                model.command_upload(duration), "command"))
        for _ in range(per_class):
            samples.append(_noise_window(rng))
    else:
        raise WorkloadError(f"unknown speaker kind {speaker_kind!r}")
    return samples


def _noise_window(rng: np.random.Generator) -> WindowSample:
    """Background drizzle: a few small records over a long, slow span."""
    count = int(rng.integers(3, 9))
    lengths = []
    offsets = []
    offset = 0.0
    for _ in range(count):
        lengths.append(int(rng.integers(60, 220)))
        offsets.append(offset)
        offset += uniform(rng, 0.3, 0.9)
    return WindowSample(lengths=tuple(lengths), offsets=tuple(offsets),
                        label="noise")


def morph_sample(sample: WindowSample, morpher,
                 rng: np.random.Generator) -> WindowSample:
    """Apply a traffic morpher's offline reshaping to one window.

    ``morpher`` is duck-typed (``morph_window(records, rng)`` over
    ``(offset, length)`` pairs) so this module never imports the
    attacker package — see :mod:`repro.attacks.morphing`.
    """
    records = list(zip(sample.offsets, sample.lengths))
    morphed = morpher.morph_window(records, rng)
    return WindowSample(
        lengths=tuple(int(length) for _, length in morphed),
        offsets=tuple(float(offset) for offset, _ in morphed),
        label=sample.label,
    )


# ---------------------------------------------------------------------------
# Recognizer interface
# ---------------------------------------------------------------------------

class WindowRecognizer:
    """Pluggable per-speaker window classifier.

    The online contract mirrors the built-in matcher's two call sites
    in :class:`~repro.core.recognition.TrafficRecognition`:

    * :meth:`observe` runs after every record of a pending window and
      may decide early (return a class) or abstain (return ``None``);
    * :meth:`finalize` runs when the spike has ended (classification
      timeout or idle-gap expiry) and must decide.
    """

    name = "recognizer"
    trainable = False

    def __init__(self, speaker_kind: str) -> None:
        if speaker_kind not in ("echo", "google"):
            raise WorkloadError(f"unknown speaker kind {speaker_kind!r}")
        self.speaker_kind = speaker_kind

    def fit(self, samples: Sequence[WindowSample],
            init_rng: np.random.Generator) -> "WindowRecognizer":
        """Train from labelled windows (no-op for untrainable kinds)."""
        return self

    def observe(self, lengths: Sequence[int],
                offsets: Sequence[float]) -> Optional[TrafficClass]:
        """Incremental decision while the window is still filling."""
        return None

    def finalize(self, lengths: Sequence[int],
                 offsets: Sequence[float]) -> TrafficClass:
        """Mandatory decision once the spike has ended."""
        raise NotImplementedError

    def predict_window(self, lengths: Sequence[int],
                       offsets: Sequence[float]) -> TrafficClass:
        """Offline replay of the online contract over a whole window."""
        for end in range(1, len(lengths) + 1):
            decided = self.observe(lengths[:end], offsets[:end])
            if decided is not None:
                return decided
        return self.finalize(lengths, offsets)


class SignatureRecognizer(WindowRecognizer):
    """The paper's hand-built matcher behind the pluggable interface."""

    name = "signature"

    def observe(self, lengths: Sequence[int],
                offsets: Sequence[float]) -> Optional[TrafficClass]:
        if self.speaker_kind == "google":
            return TrafficClass.COMMAND
        from repro.core.recognition import classify_echo_lengths

        return classify_echo_lengths(list(lengths))

    def finalize(self, lengths: Sequence[int],
                 offsets: Sequence[float]) -> TrafficClass:
        if self.speaker_kind == "google":
            return TrafficClass.COMMAND
        from repro.core.recognition import finalize_echo_lengths

        return finalize_echo_lengths(list(lengths))


class LearnedRecognizer(WindowRecognizer):
    """Shared plumbing for feature-space recognizers.

    Predictions are binary (command vs not); the non-command class maps
    to RESPONSE on the Echo (its negatives are response spikes) and to
    UNKNOWN on the Google Mini (its negatives are background noise).
    """

    trainable = True

    def __init__(self, speaker_kind: str) -> None:
        super().__init__(speaker_kind)
        self._mean: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self._mean is not None

    def _standardize_fit(self, matrix: np.ndarray) -> np.ndarray:
        self._mean = matrix.mean(axis=0)
        scale = matrix.std(axis=0)
        scale[scale < 1e-9] = 1.0
        self._scale = scale
        return (matrix - self._mean) / self._scale

    def _standardize(self, features: np.ndarray) -> np.ndarray:
        if self._mean is None or self._scale is None:
            raise WorkloadError(f"{self.name} recognizer is not fitted")
        return (features - self._mean) / self._scale

    def _feature_matrix(
        self, samples: Sequence[WindowSample]
    ) -> Tuple[np.ndarray, np.ndarray]:
        if not samples:
            raise WorkloadError("cannot fit a recognizer on zero windows")
        matrix = np.stack([extract_features(s.lengths, s.offsets)
                           for s in samples])
        labels = np.array([1 if s.is_command else 0 for s in samples],
                          dtype=np.int64)
        return matrix, labels

    def _negative_class(self) -> TrafficClass:
        if self.speaker_kind == "echo":
            return TrafficClass.RESPONSE
        return TrafficClass.UNKNOWN

    def _predict_is_command(self, features: np.ndarray) -> bool:
        raise NotImplementedError

    def finalize(self, lengths: Sequence[int],
                 offsets: Sequence[float]) -> TrafficClass:
        features = extract_features(lengths, offsets)
        if self._predict_is_command(features):
            return TrafficClass.COMMAND
        return self._negative_class()

    def predict_window(self, lengths: Sequence[int],
                       offsets: Sequence[float]) -> TrafficClass:
        # Learned recognizers never decide early; skip the per-record
        # abstention loop when replaying windows offline.
        return self.finalize(lengths, offsets)


class KnnRecognizer(LearnedRecognizer):
    """k-nearest-neighbour vote in standardized feature space.

    Fully deterministic: Euclidean distances in float64, neighbours
    ordered by ``(distance, training index)`` so ties break identically
    everywhere, odd ``k`` so the vote itself cannot tie.
    """

    name = "knn"

    def __init__(self, speaker_kind: str, k: int = 5) -> None:
        super().__init__(speaker_kind)
        if k < 1 or k % 2 == 0:
            raise WorkloadError(f"k must be odd and positive, got {k!r}")
        self.k = k
        self._train: Optional[np.ndarray] = None
        self._labels: Optional[np.ndarray] = None

    def fit(self, samples: Sequence[WindowSample],
            init_rng: np.random.Generator) -> "KnnRecognizer":
        matrix, labels = self._feature_matrix(samples)
        self._train = self._standardize_fit(matrix)
        self._labels = labels
        return self

    def _predict_is_command(self, features: np.ndarray) -> bool:
        if self._train is None or self._labels is None:
            raise WorkloadError("knn recognizer is not fitted")
        deltas = self._train - self._standardize(features)
        distances = np.sqrt(np.sum(deltas * deltas, axis=1))
        order = np.lexsort((np.arange(len(distances)), distances))
        k = min(self.k, len(distances))
        votes = int(self._labels[order[:k]].sum())
        return 2 * votes > k


class MlpRecognizer(LearnedRecognizer):
    """One-hidden-layer logistic MLP, full-batch gradient descent.

    Small enough to train in milliseconds, deterministic end to end:
    weights initialize from the caller's named RNG stream and every
    update is a fixed sequence of float64 matrix operations, so the
    same seed yields bit-identical weights on any worker.
    """

    name = "mlp"

    def __init__(self, speaker_kind: str, hidden: int = 16,
                 epochs: int = 300, learning_rate: float = 0.2) -> None:
        super().__init__(speaker_kind)
        if hidden < 1:
            raise WorkloadError(f"hidden size must be positive, got {hidden!r}")
        if epochs < 1:
            raise WorkloadError(f"epochs must be positive, got {epochs!r}")
        self.hidden = hidden
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.w1: Optional[np.ndarray] = None
        self.b1: Optional[np.ndarray] = None
        self.w2: Optional[np.ndarray] = None
        self.b2 = 0.0

    def fit(self, samples: Sequence[WindowSample],
            init_rng: np.random.Generator) -> "MlpRecognizer":
        matrix, labels = self._feature_matrix(samples)
        x = self._standardize_fit(matrix)
        y = labels.astype(np.float64)
        n, dim = x.shape
        init_scale = 1.0 / np.sqrt(dim)
        w1 = init_rng.standard_normal((dim, self.hidden)) * init_scale
        b1 = np.zeros(self.hidden, dtype=np.float64)
        w2 = init_rng.standard_normal(self.hidden) / np.sqrt(self.hidden)
        b2 = 0.0
        lr = self.learning_rate
        for _ in range(self.epochs):
            hidden = np.tanh(x @ w1 + b1)
            logits = hidden @ w2 + b2
            prob = 1.0 / (1.0 + np.exp(-logits))
            grad_logits = (prob - y) / n
            grad_w2 = hidden.T @ grad_logits
            grad_b2 = float(grad_logits.sum())
            grad_hidden = np.outer(grad_logits, w2) * (1.0 - hidden * hidden)
            grad_w1 = x.T @ grad_hidden
            grad_b1 = grad_hidden.sum(axis=0)
            w1 -= lr * grad_w1
            b1 -= lr * grad_b1
            w2 -= lr * grad_w2
            b2 -= lr * grad_b2
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2
        return self

    def decision_value(self, features: np.ndarray) -> float:
        """The pre-sigmoid logit for one standardized-input window."""
        if self.w1 is None or self.b1 is None or self.w2 is None:
            raise WorkloadError("mlp recognizer is not fitted")
        hidden = np.tanh(self._standardize(features) @ self.w1 + self.b1)
        return float(hidden @ self.w2 + self.b2)

    def _predict_is_command(self, features: np.ndarray) -> bool:
        return self.decision_value(features) >= 0.0

    def weight_bytes(self) -> bytes:
        """Every trained parameter, bit-exact (determinism assertions)."""
        if self.w1 is None or self.b1 is None or self.w2 is None:
            raise WorkloadError("mlp recognizer is not fitted")
        assert self._mean is not None and self._scale is not None
        parts = [self.w1, self.b1, self.w2,
                 np.array([self.b2]), self._mean, self._scale]
        return b"".join(np.ascontiguousarray(p).tobytes() for p in parts)


# ---------------------------------------------------------------------------
# Registry + training
# ---------------------------------------------------------------------------

RECOGNIZERS = PluginRegistry("window recognizer")
RECOGNIZERS.register("signature", SignatureRecognizer)
RECOGNIZERS.register("knn", KnnRecognizer)
RECOGNIZERS.register("mlp", MlpRecognizer)


def train_window_recognizer(
    kind: str,
    speaker_kind: str,
    hub: RngHub,
    train_per_class: int = 30,
    morpher=None,
) -> WindowRecognizer:
    """Build and train one recognizer from the hub's named streams.

    ``morpher`` (optional, duck-typed) reshapes the training windows —
    adversarial retraining, the defender's answer to traffic morphing.
    Training data, morph draws, and weight init each consume their own
    stream (``recognition.train.data`` / ``.morph`` / ``.init``), so
    installing a recognizer never perturbs any other component's
    randomness.
    """
    if train_per_class < 1:
        raise WorkloadError(
            f"train_per_class must be positive, got {train_per_class!r}")
    recognizer = RECOGNIZERS.create(kind, speaker_kind)
    assert isinstance(recognizer, WindowRecognizer)
    if recognizer.trainable:
        samples = synth_windows(speaker_kind,
                                hub.stream("recognition.train.data"),
                                train_per_class)
        if morpher is not None:
            morph_rng = hub.stream("recognition.train.morph")
            samples = [morph_sample(s, morpher, morph_rng) for s in samples]
        recognizer.fit(samples, hub.stream("recognition.train.init"))
    return recognizer
