"""Committed equivalence digests: fixed runs whose outputs must not move.

A speed-only change to the simulator, the network stack or the guard
must leave every simulated outcome byte-identical.  This module runs a
handful of fixed-seed workloads and reduces each to one SHA-256:

* ``compressed`` — a house/echo home, 10 owner commands and 7 replay
  attacks with the compressed (~1 min) idle gaps;
* ``compressed_lossy`` — the ``compressed`` home on a WAN that drops
  3 % of its packets, reduced packet by packet like
  ``sevenday_packets``: pins the retransmit path, which no loss-free
  run reaches;
* ``google_packets`` — the ``compressed`` workload in a Google Home
  house, reduced packet by packet: pins the Mini's upload scripts, its
  idle close and the Google cloud's TCP and QUIC replies;
* ``google_budget`` — the ``google_packets`` home under a 16 KiB hold
  budget, with its counters: pins the overflow shed on QUIC datagrams
  as well as on TCP records (the loadtest cells overflow TCP only);
* ``traffic_scripts`` — the record schedules the Echo and Google
  traffic models draw on their own, anomalous spikes included, whose
  rare re-draws no home reaches;
* ``corpora`` — every command text of the Alexa and Google corpora
  (the guard digests see only their word counts);
* ``fig6_stream`` — the guard stream of a short Echo Figure 6 run,
  whose table does not see the idle jitter between commands;
* ``recognition_windows`` — every window a recognition-robustness cell
  draws and morphs, per speaker and adversary;
* ``bootstrap`` — seeded bootstrap confidence intervals;
* ``sevenday`` — the same kind of home, 30 + 23 episodes ~1 h apart;
* ``sevenday_packets`` — a short seven-day home (4 + 3 episodes) reduced
  packet by packet, as a ``Network`` observer sees every delivery, plus
  its metrics snapshot: pins the idle heartbeat round trip itself, not
  only the guard stream it feeds.  Its packets take the observed route
  (``Network._deliver``); the unobserved delivery path is pinned by the
  other guard digests and by tests/test_net_proxy.py's frame test;
* ``sevenday_state`` — another short seven-day home (4 + 3 episodes),
  unobserved, reduced to its end state: every TCP connection's seq/ack,
  byte counts, last-receive time and timer deadlines, the TLS record
  seqs, the network's packet count, jitter buffer and FIFO floors,
  every RNG stream's state, the pending heap keys and the metrics
  snapshot.  ``sevenday`` sees only the guard stream and
  ``sevenday_packets`` takes the observed route, so neither pins what
  the idle heartbeat periods leave behind on the production route;
* ``loadtest.<mode>`` — one smoke-sized 4-speaker loadtest cell per
  guard mode;
* ``fleet_full`` — a 2-home full-fidelity fleet table;
* ``fleet_fast`` — a 512-home reduced-order fleet table in 128-home
  chunks (its RSSI surfaces come from the propagation model);
* ``fleet_fast_homes`` — every home of a 1024-home fast-fidelity shard
  one by one (each ``simulate_home`` row and its latencies), then the
  shard's chunk payloads run as one chunk and in 37-home chunks: pins
  each home, where ``fleet_fast`` sees only per-testbed totals;
* ``floor_traces`` — every RSSI sample of every floor trace a
  compressed house home records (its classifier-training walks and the
  live stair traces, some of which a post-stair teleport interrupts),
  then the training-trace features of one house pool template build;
* ``report`` — every section name and text of ``generate_report`` at
  scale 0.3 (the per-section wall-clock ``elapsed`` left out);
* ``tables.<experiment>`` — the rendered table of one small run of
  each remaining grid experiment: resilience, loadtest and
  recognition-robustness smoke grids, a two-home campaign, the
  hold-endurance sweep, the default ``repro trace`` report and a
  short Google Home Figure 6 run (the ``report`` digest covers
  neither: it runs no trace, and its Figure 6 section is Echo only).

Guard runs digest the guard's command-event stream plus the final sim
clock; loadtest cells add the cell row and its metrics snapshot, and
the fleet and the grid experiments digest their rendered tables.
``tests/goldens/digests.json`` holds the expected values; regenerate it
(only after a change that is *meant* to move simulated behaviour) with::

    PYTHONPATH=src python -m tests.equivalence --write
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import pathlib
from typing import Callable, Dict, Iterator

from repro.analysis import stats
from repro.attacks.morphing import MORPHERS
from repro.audio.commands import alexa_corpus, google_corpus
from repro.core.config import VoiceGuardConfig
from repro.core.floor import TraceClassifier
from repro.experiments import (
    campaign, fig6, fleet, hold_endurance, loadtest, pool, recognition_robustness,
    report, resilience, scenarios, synthesis, trace,
)
from repro.experiments import workload as workload_module
from repro.home.devices import MobileDevice
from repro.net.link import PacketObserver
from repro.net.packet import Packet, Protocol
from repro.sim.random import RngHub
from repro.speakers.interaction import EchoTrafficModel, GoogleTrafficModel

DIGESTS_PATH = pathlib.Path(__file__).parent / "goldens" / "digests.json"

COMPRESSED_COUNTS = (10, 7)
GOOGLE_HOLD_BUDGET = 16_384
LOSSY_WAN_LOSS = 0.03
SCRIPT_DRAWS = 3000
SEVEN_DAY_COUNTS = (30, 23)
PACKET_HOME_COUNTS = (4, 3)
STATE_HOME_SEED = 616
LOADTEST_SPEAKERS = 4
LOADTEST_RATE = "high"
LOADTEST_UTTERANCES = 8
FLEET_HOMES = 2
FAST_FLEET_HOMES = 512
FAST_FLEET_CHUNK = 128
FAST_SHARD_HOMES = 1024
FAST_SHARD_CHUNK = 37
FLOOR_TRACE_POOL_KEY = ("house", 0, 1.0, 1, "smartphone")


def guard_digest(scenario, extra: bytes = b"") -> str:
    """SHA-256 of the guard's event stream and the final sim clock."""
    digest = hashlib.sha256()
    for item in scenario.guard.log.event_stream():
        digest.update(repr(item).encode())
    digest.update(repr(scenario.sim.now).encode())
    digest.update(extra)
    return digest.hexdigest()


@contextlib.contextmanager
def observed_networks(observer: PacketObserver) -> Iterator[None]:
    """Attach ``observer`` to every ``Network`` a scenario builds
    inside the block, before any host or packet exists."""
    real_network = scenarios.Network

    def observed_network(*args, **kwargs):
        network = real_network(*args, **kwargs)
        network.add_observer(observer)
        return network

    scenarios.Network = observed_network
    try:
        yield
    finally:
        scenarios.Network = real_network


def _guard_home(seed: int, counts, episode_gap=None) -> str:
    scenario = scenarios.build_scenario(
        "house", "echo", deployment=0, owner_count=2, seed=seed)
    driver = workload_module.SevenDayWorkload(scenario, episode_gap=episode_gap)
    driver.run(*counts)
    scenario.speaker.settle_all()
    return guard_digest(scenario)


def compressed() -> str:
    return _guard_home(101, COMPRESSED_COUNTS)


def sevenday() -> str:
    return _guard_home(202, SEVEN_DAY_COUNTS, workload_module.SEVEN_DAY_GAP)


def _packet_fields(packet: Packet) -> tuple:
    return (packet.number, packet.send_time, str(packet.src), str(packet.dst),
            packet.flags._value_, packet.seq, packet.ack, packet.payload_len,
            packet.tls_type.value, packet.tls_record_seq, sorted(packet.meta.items()))


def sevenday_packets() -> str:
    """SHA-256 over every packet a short seven-day home delivers, boot
    traffic included, then the home's metrics snapshot.

    Interaction ids ride in packet ``meta``; their counter belongs to
    the home's environment, so they start at 1 whatever ran earlier in
    the process.
    """
    digest = hashlib.sha256()

    def observe(packet: Packet, _scope: str) -> None:
        digest.update(repr(_packet_fields(packet)).encode())

    with observed_networks(observe):
        scenario = scenarios.build_scenario(
            "house", "echo", deployment=0, owner_count=2, seed=606)
    driver = workload_module.SevenDayWorkload(
        scenario, episode_gap=workload_module.SEVEN_DAY_GAP)
    driver.run(*PACKET_HOME_COUNTS)
    scenario.speaker.settle_all()
    digest.update(json.dumps(scenario.env.obs.metrics.snapshot(), sort_keys=True).encode())
    return digest.hexdigest()


def _timer_state(timer) -> tuple:
    return (None, None) if timer is None else (timer._deadline, timer._next_fire)


def world_state(scenario) -> tuple:
    """A scenario's simulated end state, as plain values: what a
    speed-only change to the idle path must leave exactly as it was."""
    network = scenario.network
    queue = scenario.sim._queue
    connections = []
    hosts = []
    for host in network._hosts.values():
        if host not in hosts:
            hosts.append(host)
    for host in hosts:
        stack = host._tcp_stack
        for conn in ([] if stack is None else stack._connections.values()):
            connections.append((
                host.name, str(conn.local), str(conn.remote), conn.state.value,
                conn.snd_next, conn.rcv_next, conn.bytes_sent, conn.bytes_received,
                conn.retransmissions, conn._last_rx_time, conn._probes_sent,
                len(conn._unacked), _timer_state(conn._rto_timer),
                _timer_state(conn._keepalive_timer)))
    speaker, cloud = scenario.speaker, scenario.avs_cloud
    tls = [None if speaker._tls is None else speaker._tls._send_seq]
    tls += [(str(key), state.tls._send_seq, state.tls._recv_expected, state.dead)
            for key, state in cloud._sessions.items()]
    streams = [(name, repr(stream.bit_generator.state))
               for name, stream in sorted(scenario.env.rng._streams.items())]
    live = sorted((entry[0], entry[1]) for entry in queue._heap
                  if entry[2] is None or not entry[2].cancelled)
    return (
        scenario.sim.now, connections, tls, _timer_state(speaker._heartbeat_timer),
        network._packet_count, network._jitter_idx, network._jitter_buf,
        sorted(network._last_delivery.items()), streams, live, queue._next_seq,
        queue._live, json.dumps(scenario.env.obs.metrics.snapshot(), sort_keys=True),
    )


def sevenday_state() -> str:
    """SHA-256 of a short unobserved seven-day home's end state (see
    :func:`world_state`)."""
    scenario = scenarios.build_scenario(
        "house", "echo", deployment=0, owner_count=2, seed=STATE_HOME_SEED)
    driver = workload_module.SevenDayWorkload(
        scenario, episode_gap=workload_module.SEVEN_DAY_GAP)
    driver.run(*PACKET_HOME_COUNTS)
    scenario.speaker.settle_all()
    return hashlib.sha256(repr(world_state(scenario)).encode()).hexdigest()


def _run_packet_home(speaker_kind: str, seed: int, counts, wan_loss: float = 0.0,
                     config=None, before_run=None):
    """Run a house home for ``counts`` compressed episodes (``wan_loss``
    set and ``before_run(scenario)`` called once it is built); return
    the scenario and the SHA-256 over every packet it delivered."""
    digest = hashlib.sha256()

    def observe(packet: Packet, _scope: str) -> None:
        digest.update(repr(_packet_fields(packet)).encode())

    with observed_networks(observe):
        scenario = scenarios.build_scenario(
            "house", speaker_kind, deployment=0, owner_count=2, seed=seed,
            config=config)
    scenario.network.wan_loss = wan_loss
    if before_run is not None:
        before_run(scenario)
    workload_module.SevenDayWorkload(scenario).run(*counts)
    scenario.speaker.settle_all()
    return scenario, digest.digest()


def _packet_home(speaker_kind: str, seed: int, counts, wan_loss: float = 0.0) -> str:
    """SHA-256 over every packet a house home delivers while it runs
    ``counts`` compressed episodes, then its guard stream, final clock
    and lost-packet count."""
    scenario, packets = _run_packet_home(speaker_kind, seed, counts, wan_loss)
    return guard_digest(scenario, repr(scenario.network.packets_lost).encode() + packets)


def compressed_lossy() -> str:
    return _packet_home("echo", 101, COMPRESSED_COUNTS, wan_loss=LOSSY_WAN_LOSS)


def google_packets() -> str:
    return _packet_home("google", 101, COMPRESSED_COUNTS)


def google_budget() -> str:
    """The ``google_packets`` home under a hold budget small enough to
    refuse holds: every packet, the guard stream and the sorted
    counters.  Asserts that some refused hold is on a QUIC (UDP) flow,
    so the digest keeps covering that path."""
    refused = []

    def record_refusals(scenario) -> None:
        proxy = scenario.guard.proxy
        shed = proxy.on_hold_overflow

        def on_hold_overflow(flow):
            refused.append(flow.protocol)
            shed(flow)

        proxy.on_hold_overflow = on_hold_overflow

    config = VoiceGuardConfig(held_byte_budget=GOOGLE_HOLD_BUDGET)
    scenario, packets = _run_packet_home(
        "google", 101, COMPRESSED_COUNTS, config=config, before_run=record_refusals)
    assert Protocol.UDP in refused, f"no refused hold on a UDP flow: {refused}"
    counters = scenario.env.obs.metrics.snapshot()["counters"]
    return guard_digest(scenario, packets + json.dumps(counters, sort_keys=True).encode())


def traffic_scripts() -> str:
    """SHA-256 over record schedules drawn straight from the traffic
    models: Echo command phases of every variant, Echo response spikes
    and Google command uploads, then anomalous-only command phases (six
    of which re-draw a filler that matched a fixed pattern)."""

    def schedule(records) -> list:
        return [(record.offset, record.length) for record in records]

    hub = RngHub(808)
    echo = EchoTrafficModel(hub.stream("echo"), anomalous_rate=0.5, marker_rate=0.5)
    google = GoogleTrafficModel(hub.stream("google"))
    digest = hashlib.sha256()
    for index in range(SCRIPT_DRAWS):
        speech = 1.0 + (index % 7) * 0.5
        phase = echo.command_phase(speech)
        digest.update(repr((phase.variant, schedule(phase.records),
                            schedule(echo.response_spike()),
                            schedule(google.command_upload(speech)))).encode())
    anomalous = EchoTrafficModel(hub.stream("echo.anomalous"), anomalous_rate=1.0)
    for _ in range(SCRIPT_DRAWS):
        digest.update(repr(schedule(anomalous.command_phase(1.0).records)).encode())
    return digest.hexdigest()


def corpora() -> str:
    """SHA-256 over every command text of both synthesized corpora."""
    texts = [command.text for corpus in (alexa_corpus(), google_corpus())
             for command in corpus.commands]
    return hashlib.sha256(repr(texts).encode()).hexdigest()


@contextlib.contextmanager
def captured_scenarios(module) -> Iterator[list]:
    """Collect every scenario ``module.build_scenario`` builds inside
    the block."""
    built = []
    real_build = module.build_scenario

    def capture(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    module.build_scenario = capture
    try:
        yield built
    finally:
        module.build_scenario = real_build


def recognition_windows() -> str:
    """SHA-256 over every window a signature-recognizer cell draws and
    morphs, for each speaker and adversary, then each cell's row: the
    robustness table keeps only rounded accuracies."""
    digest = hashlib.sha256()
    real_synth = recognition_robustness.synth_windows
    real_morph = recognition_robustness.morph_sample

    def record(samples):
        for sample in samples:
            digest.update(repr((sample.lengths, sample.offsets, sample.label)).encode())
        return samples

    recognition_robustness.synth_windows = lambda *a, **k: record(real_synth(*a, **k))
    recognition_robustness.morph_sample = lambda *a, **k: record([real_morph(*a, **k)])[0]
    try:
        for speaker in ("echo", "google"):
            for adversary in ("none", *sorted(MORPHERS)):
                cell = recognition_robustness.run_recognition_cell(
                    speaker, "signature", adversary, seed=909, train_windows=5, eval_windows=10)
                digest.update(repr(cell.row()).encode())
    finally:
        recognition_robustness.synth_windows = real_synth
        recognition_robustness.morph_sample = real_morph
    return digest.hexdigest()


def bootstrap() -> str:
    """Seeded bootstrap intervals, which the exported tables print, of
    a 0/1 sample and of a continuous one."""
    binary = [1, 0, 1, 1, 0, 1, 1, 1, 0, 1] * 3
    delays = [0.8 + 0.37 * (index % 7) + 0.011 * index for index in range(30)]
    return hashlib.sha256(repr([
        stats.bootstrap_interval(outcomes, seed=seed)
        for outcomes in (binary, delays) for seed in range(3)]).encode()).hexdigest()


def fig6_stream() -> str:
    """The guard stream of a short Echo Figure 6 run: its table keeps
    only per-command delays, not when each command was spoken."""
    with captured_scenarios(fig6) as built:
        fig6.run_fig6("echo", invocations=30, seed=3)
    return guard_digest(built[0])


def _loadtest_cell(mode: str) -> Callable[[], str]:
    def run() -> str:
        with captured_scenarios(loadtest) as built:
            cell = loadtest.run_loadtest_cell(
                LOADTEST_SPEAKERS, LOADTEST_RATE, mode, seed=303,
                utterances=LOADTEST_UTTERANCES)
        extra = repr((cell.row(), cell.duration)).encode()
        extra += json.dumps(cell.metrics, sort_keys=True).encode()
        return guard_digest(built[0], extra)
    return run


def _fleet_table(**config) -> str:
    config = fleet.FleetConfig(population=synthesis.PopulationModel(), **config)
    table = fleet.run_fleet(config, workers=1).render()
    return hashlib.sha256(table.encode()).hexdigest()


def fleet_full() -> str:
    return _fleet_table(homes=FLEET_HOMES, chunk_size=FLEET_HOMES, fidelity="full", seed=404)


def fleet_fast() -> str:
    return _fleet_table(homes=FAST_FLEET_HOMES, chunk_size=FAST_FLEET_CHUNK,
                        fidelity="fast", seed=505)


def fleet_fast_homes() -> str:
    config = fleet.FleetConfig(homes=FAST_SHARD_HOMES, shards=1, seed=707)
    digest = hashlib.sha256()
    for offset in range(FAST_SHARD_HOMES):
        home = fleet.simulate_home(config.population.home(config.seed, 0, offset, offset))
        digest.update(repr((home.testbed, home.legit, home.false_blocks, home.attacks,
                            home.attacks_blocked, home.decisions, home.timeouts,
                            home.retries, home.latencies_us.tolist())).encode())
    bounds = [(0, FAST_SHARD_HOMES)] + [
        (lo, min(lo + FAST_SHARD_CHUNK, FAST_SHARD_HOMES))
        for lo in range(0, FAST_SHARD_HOMES, FAST_SHARD_CHUNK)]
    for lo, hi in bounds:
        payload = fleet.run_fleet_chunk(config, 0, lo, hi)
        digest.update(json.dumps(payload, sort_keys=True).encode())
    return digest.hexdigest()


def floor_traces() -> str:
    """SHA-256 over every floor-trace sample of a compressed house home,
    then the training features one house pool template build fits.

    ``MobileDevice.record_trace`` and ``TraceClassifier.fit`` are
    wrapped for the duration of the run: each finished trace adds its
    samples' ``(rssi, time, beacon, scanner)`` fields, each fit its
    ``label -> [(slope, intercept), ...]`` training set.  A fresh pool
    builds the template from scratch, so its training walks really run.
    """
    digest = hashlib.sha256()
    real_record = MobileDevice.record_trace
    real_fit = TraceClassifier.fit

    def record_trace(device, beacon, callback, *args, **kwargs):
        def observed(samples):
            for s in samples:
                digest.update(repr((s.rssi, s.time, s.beacon_name, s.scanner_name)).encode())
            callback(samples)
        real_record(device, beacon, observed, *args, **kwargs)

    def fit(classifier, training):
        digest.update(repr(sorted(
            (label, [(f.slope, f.intercept) for f in features])
            for label, features in training.items())).encode())
        real_fit(classifier, training)

    MobileDevice.record_trace = record_trace
    TraceClassifier.fit = fit
    try:
        digest.update(_guard_home(101, COMPRESSED_COUNTS).encode())
        pool.ScenarioPool().template(FLOOR_TRACE_POOL_KEY)
    finally:
        MobileDevice.record_trace = real_record
        TraceClassifier.fit = real_fit
    return digest.hexdigest()


def report_sections() -> str:
    digest = hashlib.sha256()
    for section in report.generate_report(scale=0.3, seed=3).sections:
        digest.update(repr((section.name, section.text)).encode())
    return digest.hexdigest()


def _table(run: Callable[[], object]) -> Callable[[], str]:
    return lambda: hashlib.sha256(run().render().encode()).hexdigest()


TABLES: Dict[str, Callable[[], object]] = {
    "resilience": lambda: resilience.run_resilience(scale=0.1, testbed="office"),
    "loadtest": lambda: loadtest.run_loadtest(smoke=True),
    "recognition_robustness": lambda: recognition_robustness.run_recognition_robustness(
        smoke=True),
    "campaign": lambda: campaign.run_campaign(homes=2),
    "hold_endurance": lambda: hold_endurance.run_hold_endurance(),
    "trace": lambda: trace.run_trace(),
    "fig6_google": lambda: fig6.run_fig6("google", invocations=30, seed=3),
}


RUNS: Dict[str, Callable[[], str]] = {
    "compressed": compressed,
    "compressed_lossy": compressed_lossy,
    "google_packets": google_packets,
    "google_budget": google_budget,
    "traffic_scripts": traffic_scripts,
    "corpora": corpora,
    "fig6_stream": fig6_stream,
    "recognition_windows": recognition_windows,
    "bootstrap": bootstrap,
    "sevenday": sevenday,
    "sevenday_packets": sevenday_packets,
    "sevenday_state": sevenday_state,
    **{f"loadtest.{mode}": _loadtest_cell(mode) for mode in loadtest.MODES},
    "fleet_full": fleet_full,
    "fleet_fast": fleet_fast,
    "fleet_fast_homes": fleet_fast_homes,
    "floor_traces": floor_traces,
    "report": report_sections,
    **{f"tables.{name}": _table(run) for name, run in TABLES.items()},
}


def compute_all() -> Dict[str, str]:
    """Every digest, keyed as in ``digests.json``."""
    return {name: run() for name, run in RUNS.items()}


def load_committed() -> Dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"overwrite {DIGESTS_PATH.name} instead of checking it")
    args = parser.parse_args()
    digests = compute_all()
    if args.write:
        DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
        return 0
    committed = load_committed()
    mismatched = sorted(name for name in digests if committed.get(name) != digests[name])
    for name in mismatched:
        print(f"MISMATCH {name}: {digests[name]} != {committed.get(name)}")
    print("all digests match" if not mismatched else f"{len(mismatched)} mismatched")
    return 1 if mismatched else 0


if __name__ == "__main__":
    raise SystemExit(main())
