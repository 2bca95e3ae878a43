"""Ablations: defense matrix, floor tracking, AVS signatures, firewall.

These back DESIGN.md's design-choice claims:
* only VoiceGuard blocks the full attack gallery while passing the
  owner (voice-match stops just the live guest);
* without floor tracking, the above-speaker leak turns into missed
  attacks (the paper's Section V-B2 motivation);
* without connection-signature tracking, silent AVS IP changes orphan
  the guard (Section IV-B1);
* a packet-dropping firewall breaks sessions and loses legitimate
  commands after each block (Section I).
"""

from __future__ import annotations

from repro.experiments.ablation import (
    run_defense_matrix,
    run_firewall_comparison,
    run_floor_ablation,
    run_signature_ablation,
)


def test_defense_matrix(benchmark, publish):
    result = benchmark.pedantic(
        lambda: run_defense_matrix(seed=17, trials_per_attack=6, legit_trials=6),
        rounds=1, iterations=1,
    )
    publish("ablation_defense_matrix", result.render())
    for attack in ("replay", "synthesis", "inaudible", "laser", "remote_playback"):
        assert result.block_rate("voiceguard", attack) == 1.0, attack
        assert result.block_rate("none", attack) == 0.0, attack
        assert result.block_rate("voice_match", attack) <= 0.4, attack
    assert result.block_rate("voice_match", "live_guest") == 1.0
    assert result.block_rate("voiceguard", "live_owner") == 0.0


def test_floor_tracking_ablation(benchmark, publish):
    result = benchmark.pedantic(
        lambda: run_floor_ablation(seed=19, legit=50, malicious=40),
        rounds=1, iterations=1,
    )
    publish("ablation_floor_tracking", result.render())
    assert result.with_tracking.matrix.recall >= 0.95
    assert result.without_tracking.matrix.recall <= result.with_tracking.matrix.recall - 0.1


def test_signature_ablation(benchmark, publish):
    result = benchmark.pedantic(
        lambda: run_signature_ablation(seed=21, commands=20), rounds=1, iterations=1,
    )
    publish("ablation_signature", result.render())
    assert result.commands_checked_with == result.commands_total
    assert result.commands_checked_without < result.commands_checked_with


def test_firewall_comparison(benchmark, publish):
    result = benchmark.pedantic(
        lambda: run_firewall_comparison(seed=23, commands=25), rounds=1, iterations=1,
    )
    publish("ablation_firewall", result.render())
    assert result.proxy_executed >= result.firewall_executed
    assert result.firewall_sessions_broken > result.proxy_sessions_broken


def test_hold_endurance(benchmark, publish):
    from repro.experiments.hold_endurance import run_hold_endurance

    result = benchmark.pedantic(
        lambda: run_hold_endurance(holds=(2.0, 10.0, 30.0, 60.0), seed=29),
        rounds=1, iterations=1,
    )
    publish("ablation_hold_endurance", result.render())
    # The paper's claim: the proxy holds for dozens of seconds without
    # breaking anything; discarding can never be undone.
    assert result.max_survivable_hold("transparent proxy") >= 60.0
    assert result.max_survivable_hold("ack-and-discard") == 0.0


def test_media_campaign(benchmark, publish):
    """Section III-B's large-scale remote attack: one media payload set
    against a fleet of homes, protected vs not."""
    from repro.experiments.campaign import run_campaign

    result = benchmark.pedantic(
        lambda: run_campaign(homes=5, seed=200), rounds=1, iterations=1,
    )
    publish("ablation_media_campaign", result.render())
    assert result.executed_fraction(protected=False) >= 0.9
    assert result.executed_fraction(protected=True) == 0.0
