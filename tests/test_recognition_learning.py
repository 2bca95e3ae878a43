"""Learned recognizers + traffic morphing: properties, determinism,
and the arms-race acceptance criteria.

Four layers of pinning:

* **Hypothesis properties** — feature extraction is bit-exactly
  invariant under length permutations; every morpher preserves record
  count ordering and sim-clock monotonicity; padding never shrinks a
  record.
* **Seeded determinism** — same seed, same bits: retrained weights,
  knn predictions, and the robustness grid rendered at workers 1/2/4.
* **Acceptance** — at least one morphing adversary costs the signature
  matcher >= 20 points of echo accuracy while the learned recognizer
  retrained on morphed traces lands within 10 points of its clean
  baseline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.morphing import (
    MORPHERS,
    DummyBurstMorpher,
    PadToFixedMorpher,
    TimingJitterMorpher,
    create_morpher,
)
from repro.core.config import VoiceGuardConfig
from repro.core.events import TrafficClass
from repro.core.recognizers import (
    FEATURE_DIM,
    PERMUTATION_INVARIANT,
    RECOGNIZERS,
    WindowSample,
    extract_features,
    morph_sample,
    synth_windows,
    train_window_recognizer,
)
from repro.core.registry import RegistrationError
from repro.errors import WorkloadError
from repro.experiments.recognition_robustness import (
    run_recognition_cell,
    run_recognition_robustness,
)
from repro.experiments.scenarios import build_scenario
from repro.sim.random import RngHub

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def windows(draw, max_records: int = 24):
    """A plausible spike window: lengths + non-decreasing offsets."""
    lengths = draw(st.lists(st.integers(1, 1600), min_size=1,
                            max_size=max_records))
    gaps = draw(st.lists(
        st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
        min_size=len(lengths), max_size=len(lengths)))
    offsets = []
    clock = 0.0
    for gap in gaps:
        offsets.append(clock)
        clock += gap
    return lengths, offsets


# ---------------------------------------------------------------------------
# Feature-extraction properties
# ---------------------------------------------------------------------------


class TestFeatureProperties:
    @given(data=st.data(), window=windows())
    @settings(max_examples=80, deadline=None)
    def test_aggregates_bit_invariant_under_length_permutation(
            self, data, window):
        lengths, offsets = window
        permuted = data.draw(st.permutations(lengths))
        base = extract_features(lengths, offsets)
        other = extract_features(permuted, offsets)
        # Exact equality, not approx: the aggregates accumulate in
        # integer arithmetic, so reordering cannot move a single bit.
        assert (base[:PERMUTATION_INVARIANT]
                == other[:PERMUTATION_INVARIANT]).all()

    @given(window=windows())
    @settings(max_examples=40, deadline=None)
    def test_feature_vector_shape_and_finiteness(self, window):
        lengths, offsets = window
        features = extract_features(lengths, offsets)
        assert features.shape == (FEATURE_DIM,)
        assert np.isfinite(features).all()
        assert features[0] == len(lengths)

    def test_empty_window_rejected(self):
        with pytest.raises(WorkloadError):
            extract_features([], [])

    def test_length_offset_mismatch_rejected(self):
        with pytest.raises(WorkloadError):
            extract_features([10, 20], [0.0])

    def test_decreasing_offsets_rejected(self):
        with pytest.raises(WorkloadError):
            extract_features([10, 20], [1.0, 0.5])


# ---------------------------------------------------------------------------
# Morpher properties
# ---------------------------------------------------------------------------


class TestMorpherProperties:
    @pytest.mark.parametrize("name", sorted(MORPHERS))
    @given(window=windows(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_count_and_clock_monotonicity(self, name, window, seed):
        lengths, offsets = window
        morpher = create_morpher(name)
        morphed = morpher.morph_window(list(zip(offsets, lengths)),
                                       np.random.default_rng(seed))
        # Packet-count ordering: a morpher may only add records.
        assert len(morphed) >= len(lengths)
        out_offsets = [offset for offset, _ in morphed]
        assert out_offsets == sorted(out_offsets)
        assert all(length >= 1 for _, length in morphed)

    @pytest.mark.parametrize("name", ["pad-fixed", "pad-random"])
    @given(window=windows(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_padding_never_shrinks_a_record(self, name, window, seed):
        lengths, offsets = window
        morpher = create_morpher(name)
        morphed = morpher.morph_window(list(zip(offsets, lengths)),
                                       np.random.default_rng(seed))
        assert len(morphed) == len(lengths)
        for (_, out_len), in_len in zip(morphed, lengths):
            assert out_len >= in_len

    @given(window=windows(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_jitter_touches_only_timing(self, window, seed):
        lengths, offsets = window
        morphed = TimingJitterMorpher().morph_window(
            list(zip(offsets, lengths)), np.random.default_rng(seed))
        assert [length for _, length in morphed] == lengths
        for (out_offset, _), in_offset in zip(morphed, offsets):
            assert out_offset >= in_offset  # gaps only ever stretch

    @given(window=windows(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dummy_burst_keeps_real_records_in_order(self, window, seed):
        lengths, offsets = window
        morphed = DummyBurstMorpher().morph_window(
            list(zip(offsets, lengths)), np.random.default_rng(seed))
        out_lengths = [length for _, length in morphed]
        # The true records survive as a subsequence, in order.
        iterator = iter(out_lengths)
        assert all(any(candidate == wanted for candidate in iterator)
                   for wanted in lengths)

    def test_morph_sample_preserves_label(self):
        sample = WindowSample(lengths=(300, 140), offsets=(0.0, 0.2),
                              label="command")
        morphed = morph_sample(sample, PadToFixedMorpher(),
                               np.random.default_rng(0))
        assert morphed.label == "command"
        assert morphed.is_command
        assert all(length == 1460 for length in morphed.lengths)



# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------


class TestPluginRegistry:
    """The recognizer and morpher name → class tables."""

    def test_unknown_name_lists_known(self):
        with pytest.raises(RegistrationError,
                           match="no window recognizer named 'svm'; "
                                 "known: knn, mlp, signature"):
            train_window_recognizer("svm", "echo", RngHub(1))
        with pytest.raises(RegistrationError,
                           match="no traffic morpher named 'nope'; known: "
                                 "dummy-burst, jitter, pad-fixed, pad-random"):
            create_morpher("nope")

    def test_builtin_registries_are_populated(self):
        assert list(RECOGNIZERS) == ["signature", "knn", "mlp"]
        assert list(MORPHERS) == ["pad-fixed", "pad-random", "jitter",
                                  "dummy-burst"]
        for name, cls in MORPHERS.items():
            assert create_morpher(name).name == name
            assert type(create_morpher(name)) is cls
        for name, cls in RECOGNIZERS.items():
            assert cls("echo").name == name

    def test_unknown_recognizer_fails_at_scenario_build(self):
        """The live guard runs the signature matcher and takes no
        recognizer name, so naming one is refused before a scenario
        exists; the offline cell, which does take a name, refuses an
        unknown one before it trains or simulates anything."""
        with pytest.raises(TypeError):
            VoiceGuardConfig(recognizer="svm")
        with pytest.raises(TypeError):
            build_scenario("apartment", "echo", seed=1, recognizer="svm")
        with pytest.raises(RegistrationError,
                           match="no window recognizer named 'svm'"):
            run_recognition_cell("echo", "svm", "none", seed=1)


# ---------------------------------------------------------------------------
# Seeded determinism
# ---------------------------------------------------------------------------


class TestSeededDeterminism:
    def test_same_seed_mlp_weights_bit_identical(self):
        first = train_window_recognizer("mlp", "echo", RngHub(5),
                                        train_per_class=10)
        second = train_window_recognizer("mlp", "echo", RngHub(5),
                                         train_per_class=10)
        assert first.weight_bytes() == second.weight_bytes()
        different = train_window_recognizer("mlp", "echo", RngHub(6),
                                            train_per_class=10)
        assert first.weight_bytes() != different.weight_bytes()

    def test_same_seed_knn_predictions_identical(self):
        first = train_window_recognizer("knn", "echo", RngHub(5),
                                        train_per_class=10)
        second = train_window_recognizer("knn", "echo", RngHub(5),
                                         train_per_class=10)
        probe = synth_windows("echo", np.random.default_rng(77), 8)
        for sample in probe:
            assert (first.predict_window(sample.lengths, sample.offsets)
                    is second.predict_window(sample.lengths, sample.offsets))

    def test_grid_table_identical_across_workers_1_2_4(self):
        rendered = [
            run_recognition_robustness(seed=3, smoke=True,
                                       workers=workers).render()
            for workers in (1, 2, 4)
        ]
        assert rendered[0] == rendered[1] == rendered[2]

    def test_training_uses_dedicated_streams_only(self):
        hub = RngHub(9)
        train_window_recognizer("mlp", "echo", hub, train_per_class=6)
        assert set(hub._streams) == {"recognition.train.data",
                                     "recognition.train.init"}
        hub_morph = RngHub(9)
        train_window_recognizer("mlp", "echo", hub_morph, train_per_class=6,
                                morpher=PadToFixedMorpher())
        assert set(hub_morph._streams) == {"recognition.train.data",
                                           "recognition.train.morph",
                                           "recognition.train.init"}


# ---------------------------------------------------------------------------
# Acceptance: the arms race, in numbers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_grid():
    return run_recognition_robustness(seed=3, smoke=True)


class TestArmsRaceAcceptance:
    def test_padding_blinds_signature_but_not_retrained_knn(self):
        """The PR's acceptance criteria, asserted at full cell sizes."""
        clean = run_recognition_cell("echo", "signature", "none", seed=3)
        morphed = run_recognition_cell("echo", "signature", "pad-fixed",
                                       seed=3)
        drop = (clean.accuracy - morphed.accuracy) * 100.0
        assert drop >= 20.0, (
            f"pad-fixed cost the signature matcher only {drop:.1f} points")

        knn_clean = run_recognition_cell("echo", "knn", "none", seed=3)
        knn_retrained = run_recognition_cell("echo", "knn", "pad-fixed",
                                             adaptive=True, seed=3)
        gap = abs(knn_clean.accuracy - knn_retrained.accuracy) * 100.0
        assert gap <= 10.0, (
            f"retrained knn landed {gap:.1f} points from its clean baseline")

    def test_adaptive_cell_requires_an_adversary(self):
        with pytest.raises(WorkloadError):
            run_recognition_cell("echo", "knn", "none", adaptive=True)

    def test_google_recall_is_morph_proof_for_signature(self):
        cell = run_recognition_cell("google", "signature", "pad-fixed",
                                    seed=3, eval_windows=8)
        assert cell.accuracy == 1.0

    def test_result_render_carries_headline(self, smoke_grid):
        rendered = smoke_grid.render()
        assert "signature matcher on echo" in rendered
        assert "knn+retrain on echo" in rendered
        assert "5 cells" in rendered

    def test_smoke_grid_worst_morph_meets_both_floors(self, smoke_grid):
        # The headline as the grid computes it: the worst morph found by
        # lookup, not a named cell run on its own.
        clean = smoke_grid.cell("echo", "signature", "none")
        adversary, morphed = smoke_grid.worst_morph("echo", "signature")
        assert (clean.accuracy - morphed) * 100.0 >= 20.0
        knn_clean = smoke_grid.cell("echo", "knn", "none")
        retrained = smoke_grid.cell("echo", "knn", adversary, adaptive=True)
        assert abs(knn_clean.accuracy - retrained.accuracy) * 100.0 <= 10.0


# ---------------------------------------------------------------------------
# The signature alphabet (speakers/signatures.py)
# ---------------------------------------------------------------------------


class TestSignatureAlphabet:
    """The constants the whole arms race keys on stay self-consistent."""

    def test_avs_signature_differs_from_every_other_amazon_server(self):
        from repro.speakers import signatures as sig

        for domain, signature in sig.OTHER_AMAZON_SIGNATURES.items():
            assert signature != sig.AVS_CONNECT_SIGNATURE, domain
            # Even the comparable-length prefixes differ, so prefix
            # matching can never confuse another server for AVS.
            width = len(signature)
            assert signature != sig.AVS_CONNECT_SIGNATURE[:width], domain

    def test_phase1_filler_avoids_markers_and_the_response_pair(self):
        from repro.speakers import signatures as sig

        for length in sig.PHASE1_FILLER_POOL:
            assert length not in sig.PHASE1_MARKERS
            assert length != sig.PHASE2_MARKER_PAIR[0]  # no 77 -> no pair

    def test_phase2_prefix_avoids_the_command_alphabet(self):
        from repro.speakers import signatures as sig

        low = sig.PHASE1_FIRST_RANGE[0]
        for length in sig.PHASE2_PREFIX_POOL:
            assert length < low  # cannot open a fixed-pattern command
            assert length not in sig.PHASE1_MARKERS
            assert length != sig.PHASE2_MARKER_PAIR[0]

    def test_heartbeat_is_outside_every_marker_pool(self):
        from repro.speakers import signatures as sig

        assert sig.HEARTBEAT_LEN == 41
        assert sig.HEARTBEAT_LEN not in sig.PHASE1_MARKERS
        assert sig.HEARTBEAT_LEN not in sig.PHASE2_MARKER_PAIR
        assert sig.HEARTBEAT_LEN not in sig.PHASE1_FILLER_POOL

    def test_dummy_burst_pool_dodges_the_signature_alphabet(self):
        from repro.speakers import signatures as sig

        low, high = sig.PHASE1_FIRST_RANGE
        for length in DummyBurstMorpher.POOL:
            assert length not in sig.PHASE1_MARKERS
            assert length not in sig.PHASE2_MARKER_PAIR
            assert not low <= length <= high

    def test_classify_echo_lengths_cases(self):
        from repro.core.recognition import (
            classify_echo_lengths,
            finalize_echo_lengths,
        )

        # A phase-1 marker in the first five packets: command.
        assert classify_echo_lengths([131, 138]) is TrafficClass.COMMAND
        # The 77->33 adjacent pair within the first seven: response.
        assert classify_echo_lengths([55, 77, 33]) is TrafficClass.RESPONSE
        # Banded first packet + a fixed pattern completing at index 4.
        assert (classify_echo_lengths([277, 131, 277, 131, 113])
                is TrafficClass.COMMAND)
        # Seven undecided packets: give up as UNKNOWN.
        assert classify_echo_lengths([50] * 7) is TrafficClass.UNKNOWN
        # Short and undecided: still pending...
        assert classify_echo_lengths([50, 50]) is None
        # ...until the spike ends early, which finalizes to UNKNOWN.
        assert finalize_echo_lengths([50, 50]) is TrafficClass.UNKNOWN


# ---------------------------------------------------------------------------
# Recognizer edge cases
# ---------------------------------------------------------------------------


class TestRecognizerEdges:
    def test_unknown_speaker_kind_rejected(self):
        with pytest.raises(WorkloadError):
            RECOGNIZERS["knn"]("homepod")
        with pytest.raises(WorkloadError):
            synth_windows("homepod", np.random.default_rng(0), 2)

    def test_unfitted_learned_recognizer_refuses_to_predict(self):
        recognizer = RECOGNIZERS["knn"]("echo")
        assert not recognizer.fitted
        with pytest.raises(WorkloadError):
            recognizer.predict_window([100, 200], [0.0, 0.1])

    def test_negative_classes_follow_speaker_kind(self):
        echo = train_window_recognizer("knn", "echo", RngHub(2),
                                       train_per_class=6)
        google = train_window_recognizer("knn", "google", RngHub(2),
                                         train_per_class=6)
        noise = WindowSample(lengths=(80, 90, 70), offsets=(0.0, 0.5, 1.0),
                             label="noise")
        assert echo.predict_window(noise.lengths, noise.offsets) in (
            TrafficClass.RESPONSE, TrafficClass.COMMAND)
        assert google.predict_window(noise.lengths, noise.offsets) in (
            TrafficClass.UNKNOWN, TrafficClass.COMMAND)

    def test_train_per_class_validated(self):
        with pytest.raises(WorkloadError):
            train_window_recognizer("knn", "echo", RngHub(1),
                                    train_per_class=0)

    def test_signature_recognizer_matches_builtin_matcher(self):
        """A whole-window prediction is what the live matcher decides
        record by record: the first prefix it settles on, or the
        finalized class when the spike ends undecided."""
        from repro.core.recognition import (
            classify_echo_lengths,
            finalize_echo_lengths,
        )

        def live(lengths):
            for end in range(1, len(lengths) + 1):
                decided = classify_echo_lengths(lengths[:end])
                if decided is not None:
                    return decided
            return finalize_echo_lengths(lengths)

        echo = RECOGNIZERS["signature"]("echo")
        google = RECOGNIZERS["signature"]("google")
        rng = np.random.default_rng(3)
        samples = synth_windows("echo", rng, 20)
        samples += [morph_sample(sample, create_morpher(name), rng)
                    for sample in samples[:10] for name in sorted(MORPHERS)]
        samples.append(WindowSample(lengths=(100, 200), offsets=(0.0, 0.1),
                                    label="noise"))
        for sample in samples:
            lengths = list(sample.lengths)
            assert (echo.predict_window(lengths, sample.offsets)
                    is live(lengths))
            assert (google.predict_window(lengths, sample.offsets)
                    is TrafficClass.COMMAND)
