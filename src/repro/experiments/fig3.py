"""Figure 3: traffic spikes during one user-Echo interaction.

The paper's example: the user asks for tonight's NBA schedule and the
reply contains three game segments, so the Echo emits the command-phase
spikes (① activation, ② audio upload) and three response-phase spikes
(③④⑤).  The naive method treats every post-idle spike as a command
and needlessly holds ③④⑤; the signature method releases them within a
few packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.reporting import render_table
from repro.baselines.naive_spike import NaiveSpikeDetector
from repro.core.events import TrafficClass
from repro.experiments.scenarios import build_scenario
from repro.net.capture import PacketCapture
from repro.net.packet import Packet


@dataclass
class Spike:
    """One post-idle burst of client app-data packets."""

    start: float
    end: float
    lengths: List[int]

    @property
    def total_bytes(self) -> int:
        return sum(self.lengths)

    @property
    def packet_count(self) -> int:
        return len(self.lengths)


@dataclass
class Fig3Result:
    spikes: List[Spike]
    naive_holds: int
    naive_wrong_holds: int
    guard_command_windows: int
    guard_response_windows: int
    guard_response_hold_times: List[float] = field(default_factory=list)

    def render(self) -> str:
        """Render as paper-style text."""
        rows = []
        for index, spike in enumerate(self.spikes):
            label = "command phase" if index == 0 else f"response spike {index}"
            rows.append([
                f"#{index + 1}",
                f"{spike.start:.2f}s",
                spike.packet_count,
                spike.total_bytes,
                label,
            ])
        table = render_table(
            "Figure 3: spikes in one Echo interaction (3-segment response)",
            ["spike", "start", "packets", "bytes", "ground truth"],
            rows,
        )
        worst = max(self.guard_response_hold_times) if self.guard_response_hold_times else 0.0
        summary = (
            f"\nnaive method: holds {self.naive_holds} spikes "
            f"({self.naive_wrong_holds} needlessly -> seconds of delay each)\n"
            f"VoiceGuard: {self.guard_command_windows} command window(s) held for decision; "
            f"{self.guard_response_windows} response window(s) released after <=7 packets "
            f"(worst release delay {worst * 1000:.0f} ms)"
        )
        return table + summary


def group_spikes(events: List[tuple], idle_gap: float = 2.5) -> List[Spike]:
    """Group (time, length) points into post-idle spikes."""
    spikes: List[Spike] = []
    current: Optional[Spike] = None
    for time, length in events:
        if current is None or time - current.end > idle_gap:
            current = Spike(start=time, end=time, lengths=[length])
            spikes.append(current)
        else:
            current.end = time
            current.lengths.append(length)
    return spikes


def run_fig3(seed: int = 5) -> Fig3Result:
    """Reproduce Figure 3 with a forced three-segment response."""
    scenario = build_scenario(
        "house", "echo", deployment=0, seed=seed,
        owner_count=1, with_floor_tracking=False,
    )
    env = scenario.env
    speaker = scenario.speaker
    speaker.traffic.forced_response_segments = [8, 9, 8]
    scenario.owners[0].teleport(env.testbed.standing_point(5))

    capture = PacketCapture()

    def keep(packet: Packet) -> bool:
        return (
            packet.src.ip == speaker.ip
            and packet.is_application_data
            and packet.payload_len != 41
        )

    capture.attach(scenario.network, keep)
    start_time = env.sim.now
    windows_before = len(scenario.guard.log.events)

    duration = scenario.speak_command(env.rng.stream("fig3"))
    env.sim.run_for(duration + 35.0)

    # Each client record is observed twice (speaker->guard and
    # guard->cloud legs); keep the first (downstream) observation of
    # each TLS record sequence number.
    seen = set()
    events = []
    for record in sorted(capture.records, key=lambda r: r.time):
        key = record.tls_record_seq
        if key is not None and key in seen:
            continue
        seen.add(key)
        events.append((record.time - start_time, record.payload_len))
    events.sort()
    spikes = group_spikes(events)

    naive = NaiveSpikeDetector()
    spike_lengths = [s.lengths for s in spikes]
    verdicts = naive.evaluate_interaction(spike_lengths)
    naive_holds = sum(1 for v in verdicts if v.would_hold)

    guard_events = scenario.guard.log.events[windows_before:]
    commands = [e for e in guard_events if e.classification is TrafficClass.COMMAND]
    responses = [e for e in guard_events if e.classification is TrafficClass.RESPONSE]
    return Fig3Result(
        spikes=spikes,
        naive_holds=naive_holds,
        naive_wrong_holds=naive.unnecessary_holds(spike_lengths),
        guard_command_windows=len(commands),
        guard_response_windows=len(responses),
        guard_response_hold_times=[e.hold_duration for e in responses if e.hold_duration],
    )
