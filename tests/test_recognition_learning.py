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
* **Live wiring** — the proxy record-shim chain is provably transparent
  when empty or identity, and a padding adversary at the tap blinds the
  signature guard but not a knn-configured one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.morphing import (
    MORPHERS,
    DummyBurstMorpher,
    MorphingAdversary,
    PadToFixedMorpher,
    RandomPadMorpher,
    TimingJitterMorpher,
    TrafficMorpher,
    create_morpher,
)
from repro.audio.speech import full_utterance_duration
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
from repro.core.registry import PluginRegistry, RegistrationError
from repro.errors import ConfigError, WorkloadError
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
    @pytest.mark.parametrize("name", sorted(MORPHERS.names()))
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

    def test_morpher_knob_validation(self):
        with pytest.raises(ConfigError):
            PadToFixedMorpher(cell=0)
        with pytest.raises(ConfigError):
            RandomPadMorpher(max_pad=0)
        with pytest.raises(ConfigError):
            TimingJitterMorpher(max_jitter=0.0)
        with pytest.raises(ConfigError):
            DummyBurstMorpher(burst=0)
        with pytest.raises(ConfigError):
            DummyBurstMorpher(probability=1.5)


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------


class TestPluginRegistry:
    def test_register_create_names(self):
        registry = PluginRegistry("widget")
        registry.register("a", dict)
        assert "a" in registry
        assert registry.names() == ["a"]
        assert registry.create("a") == {}

    def test_duplicate_rejected_unless_replace(self):
        registry = PluginRegistry("widget")
        registry.register("a", dict)
        with pytest.raises(RegistrationError):
            registry.register("a", list)
        registry.register("a", list, replace=True)
        assert registry.create("a") == []

    def test_unknown_name_lists_known(self):
        registry = PluginRegistry("widget")
        registry.register("a", dict)
        with pytest.raises(RegistrationError, match="a"):
            registry.create("b")

    def test_builtin_registries_are_populated(self):
        assert RECOGNIZERS.names() == ["knn", "mlp", "signature"]
        assert MORPHERS.names() == ["dummy-burst", "jitter", "pad-fixed",
                                    "pad-random"]


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
# Live wiring: the proxy record-shim chain
# ---------------------------------------------------------------------------


def _run_one_command(config=None, adversary=None, seed=11):
    scenario = build_scenario(
        "house", "echo", seed=seed, owner_count=1,
        with_floor_tracking=False, anomalous_rate=0.0, config=config)
    if adversary is not None:
        adversary.install(scenario.guard.proxy)
    env = scenario.env
    scenario.owners[0].teleport(
        env.testbed.speaker_room(0).center(height=0.0))
    owner = scenario.owners[0]
    rng = env.rng.stream("test.recognition.live")
    command = scenario.corpus.sample(rng)
    duration = full_utterance_duration(command, rng)
    utterance = owner.speak(command.text, duration)
    env.play_utterance(utterance, owner.device_position())
    env.sim.run_for(duration + 14.0)
    return scenario


class TestLiveMorphingShim:
    def test_identity_shim_is_byte_transparent(self):
        baseline = _run_one_command()
        adversary = MorphingAdversary(TrafficMorpher(), seed=123)
        shimmed = _run_one_command(adversary=adversary)
        assert (shimmed.guard.log.event_stream()
                == baseline.guard.log.event_stream())
        assert adversary.records_shaped > 0
        assert adversary.phantoms_injected == 0

    def test_scoped_adversary_leaves_other_speakers_alone(self):
        from repro.net.addresses import IPv4Address

        baseline = _run_one_command()
        adversary = MorphingAdversary(
            PadToFixedMorpher(), seed=123,
            speaker_ips=[IPv4Address("10.9.9.9")])  # nobody's IP
        shimmed = _run_one_command(adversary=adversary)
        assert (shimmed.guard.log.event_stream()
                == baseline.guard.log.event_stream())
        assert adversary.records_shaped == 0

    def test_padding_at_the_tap_blinds_the_signature_guard(self):
        scenario = _run_one_command(
            adversary=MorphingAdversary(PadToFixedMorpher(), seed=7))
        classes = [event.classification for event in scenario.guard.log.events]
        assert TrafficClass.COMMAND not in classes
        assert TrafficClass.UNKNOWN in classes

    def test_knn_guard_still_sees_the_command_under_padding(self):
        scenario = _run_one_command(
            config=VoiceGuardConfig(recognizer="knn"),
            adversary=MorphingAdversary(PadToFixedMorpher(), seed=7))
        classes = [event.classification for event in scenario.guard.log.events]
        assert TrafficClass.COMMAND in classes

    def test_offline_morpher_rejected_as_live_shim(self):
        with pytest.raises(ConfigError):
            MorphingAdversary(TimingJitterMorpher(), seed=1)

    def test_config_rejects_morph_training_for_signature(self):
        with pytest.raises(ConfigError):
            VoiceGuardConfig(recognizer="signature",
                             recognizer_train_morph="pad-fixed")
        with pytest.raises(ConfigError):
            VoiceGuardConfig(recognizer="")

    def test_unknown_recognizer_fails_at_scenario_build(self):
        with pytest.raises(RegistrationError):
            build_scenario("apartment", "echo", seed=1,
                           config=VoiceGuardConfig(recognizer="svm"))

    def test_morph_trained_guard_builds(self):
        scenario = _run_one_command(
            config=VoiceGuardConfig(recognizer="mlp",
                                    recognizer_train_morph="pad-fixed"),
            adversary=MorphingAdversary(PadToFixedMorpher(), seed=7))
        classes = [event.classification for event in scenario.guard.log.events]
        assert TrafficClass.COMMAND in classes


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
            RECOGNIZERS.create("knn", "homepod")
        with pytest.raises(WorkloadError):
            synth_windows("homepod", np.random.default_rng(0), 2)

    def test_unfitted_learned_recognizer_refuses_to_predict(self):
        recognizer = RECOGNIZERS.create("knn", "echo")
        assert not recognizer.fitted
        with pytest.raises(WorkloadError):
            recognizer.predict_window([100, 200], [0.0, 0.1])

    def test_knn_even_k_rejected(self):
        from repro.core.recognizers import KnnRecognizer

        with pytest.raises(WorkloadError):
            KnnRecognizer("echo", k=4)

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
        from repro.core.recognition import finalize_echo_lengths

        recognizer = RECOGNIZERS.create("signature", "echo")
        for sample in synth_windows("echo", np.random.default_rng(3), 6):
            assert (recognizer.predict_window(sample.lengths, sample.offsets)
                    is not None)
        # Finalize defers to the builtin on short undecided windows.
        assert (recognizer.finalize([100, 200], [0.0, 0.1])
                is finalize_echo_lengths([100, 200]))
