"""Tests for corpora, speech pacing, voiceprints, and verification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.audio.commands import (
    ALEXA_CORPUS_SIZE,
    GOOGLE_CORPUS_SIZE,
    CommandCorpus,
    VoiceCommand,
    alexa_corpus,
    corpus_statistics,
    google_corpus,
)
from repro.audio.speech import (
    SPEECH_WORDS_PER_SECOND,
    full_utterance_duration,
    response_segment_duration,
    speaking_duration,
)
from repro.audio.verification import VoiceMatchVerifier
from repro.audio.voiceprint import (
    UtteranceSource,
    VoicePrint,
    live_utterance,
    replay_of,
    synthesized_as,
)
from repro.errors import WorkloadError


class TestCorpora:
    def test_alexa_size(self):
        assert len(alexa_corpus()) == ALEXA_CORPUS_SIZE == 320

    def test_google_size(self):
        assert len(google_corpus()) == GOOGLE_CORPUS_SIZE == 443

    def test_alexa_mean_words_matches_paper(self):
        # Paper: 5.95 words on average.
        assert abs(alexa_corpus().mean_word_count() - 5.95) < 0.1

    def test_google_mean_words_matches_paper(self):
        # Paper: 7.39 words on average.
        assert abs(google_corpus().mean_word_count() - 7.39) < 0.1

    def test_alexa_at_least_four_words(self):
        # Paper: more than 86.8 % have at least 4 words.
        assert abs(alexa_corpus().fraction_with_at_least(4) - 0.868) < 0.01

    def test_google_at_least_five_words(self):
        # Paper: more than 93.9 % have at least 5 words.
        assert abs(google_corpus().fraction_with_at_least(5) - 0.939) < 0.01

    def test_corpus_is_deterministic(self):
        first = [c.text for c in alexa_corpus()]
        second = [c.text for c in alexa_corpus()]
        assert first == second

    def test_word_counts_are_exact(self):
        for command in alexa_corpus():
            assert command.word_count == len(command.text.split())

    def test_sampling_uniform(self, rng):
        corpus = alexa_corpus()
        sampled = {corpus.sample(rng).text for _ in range(400)}
        assert len(sampled) > 100  # broad coverage

    def test_empty_corpus_rejected(self):
        with pytest.raises(WorkloadError):
            CommandCorpus("alexa", [])

    def test_statistics_dictionary(self):
        stats = corpus_statistics(alexa_corpus())
        assert stats["size"] == 320.0
        assert 0.0 < stats["frac_at_least_4"] <= 1.0


class TestSpeech:
    def test_pace_constant_matches_paper(self):
        assert SPEECH_WORDS_PER_SECOND == 2.0

    def test_duration_without_rng_is_deterministic(self):
        command = VoiceCommand("turn on the lights", "alexa")
        assert speaking_duration(command) == pytest.approx(2.0)

    def test_duration_with_jitter_bounded(self, rng):
        command = VoiceCommand("turn on the lights please now", "alexa")
        base = command.word_count / 2.0
        for _ in range(100):
            duration = speaking_duration(command, rng)
            assert 0.5 * base <= duration <= 1.7 * base

    def test_full_utterance_adds_wake_word(self):
        command = VoiceCommand("turn on the lights", "alexa")
        assert full_utterance_duration(command) > speaking_duration(command)

    def test_response_segment_duration(self):
        assert response_segment_duration(8) == pytest.approx(4.0)

    def test_response_segment_rejects_zero_words(self):
        with pytest.raises(ValueError):
            response_segment_duration(0)


class TestVoiceprints:
    def test_voiceprints_are_unit_norm(self, rng):
        print_ = VoicePrint.create("alice", rng)
        assert np.linalg.norm(print_.vector) == pytest.approx(1.0)

    def test_live_observations_differ_but_stay_close(self, rng):
        print_ = VoicePrint.create("alice", rng)
        a, b = print_.observe(rng), print_.observe(rng)
        assert not np.allclose(a, b)
        assert float(np.dot(a, print_.vector)) > 0.85

    def test_replay_keeps_identity(self, rng):
        print_ = VoicePrint.create("alice", rng)
        original = live_utterance("open the door", 2.0, print_, rng)
        replay = replay_of(original, rng)
        assert replay.source is UtteranceSource.REPLAY
        assert replay.is_attack
        assert float(np.dot(replay.embedding, print_.vector)) > 0.8

    def test_replay_without_embedding_rejected(self, rng):
        from repro.audio.voiceprint import VoiceUtterance
        bare = VoiceUtterance("x", 1, 1.0, None, UtteranceSource.LIVE_OWNER, "alice")
        with pytest.raises(ValueError):
            replay_of(bare, rng)

    def test_synthesis_is_near_victim(self, rng):
        print_ = VoicePrint.create("alice", rng)
        fake = synthesized_as(print_, "unlock everything", 2.5, rng)
        assert fake.source is UtteranceSource.SYNTHESIS
        assert float(np.dot(fake.embedding, print_.vector)) > 0.75

    @pytest.mark.parametrize("source,is_attack", [
        (UtteranceSource.LIVE_OWNER, False),
        (UtteranceSource.LIVE_GUEST, False),
        (UtteranceSource.REPLAY, True),
        (UtteranceSource.SYNTHESIS, True),
        (UtteranceSource.INAUDIBLE, True),
        (UtteranceSource.LASER, True),
        (UtteranceSource.REMOTE_PLAYBACK, True),
    ])
    def test_attack_taxonomy(self, source, is_attack):
        assert source.is_attack is is_attack


class TestVoiceMatch:
    @pytest.fixture
    def enrolled(self, rng):
        owner = VoicePrint.create("owner", rng)
        verifier = VoiceMatchVerifier()
        verifier.enroll(owner, rng)
        return owner, verifier

    def test_owner_live_voice_accepted(self, enrolled, rng):
        owner, verifier = enrolled
        accepted = sum(
            verifier.verify(live_utterance("hi", 1.0, owner, rng)).accepted
            for _ in range(50)
        )
        assert accepted >= 48

    def test_different_human_rejected(self, enrolled, rng):
        owner, verifier = enrolled
        guest = VoicePrint.create("guest", rng)
        accepted = sum(
            verifier.verify(live_utterance("hi", 1.0, guest, rng)).accepted
            for _ in range(50)
        )
        assert accepted == 0

    def test_replay_bypasses_voice_match(self, enrolled, rng):
        # The paper's premise: replayed owner audio passes (Section II-B1).
        owner, verifier = enrolled
        accepted = sum(
            verifier.verify(replay_of(live_utterance("hi", 1.0, owner, rng), rng)).accepted
            for _ in range(50)
        )
        assert accepted >= 45

    def test_synthesis_bypasses_voice_match(self, enrolled, rng):
        owner, verifier = enrolled
        accepted = sum(
            verifier.verify(synthesized_as(owner, "order it", 2.0, rng)).accepted
            for _ in range(50)
        )
        assert accepted >= 40

    def test_unenrolled_verifier_raises(self, rng):
        verifier = VoiceMatchVerifier()
        owner = VoicePrint.create("owner", rng)
        with pytest.raises(RuntimeError):
            verifier.score(live_utterance("hi", 1.0, owner, rng))

    def test_enroll_from_samples(self, rng):
        owner = VoicePrint.create("owner", rng)
        samples = [owner.observe(rng) for _ in range(4)]
        verifier = VoiceMatchVerifier()
        verifier.enroll_from_samples("owner", samples)
        assert verifier.enrolled
