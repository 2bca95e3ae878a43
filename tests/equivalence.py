"""Committed equivalence digests: fixed runs whose outputs must not move.

A speed-only change to the simulator, the network stack or the guard
must leave every simulated outcome byte-identical.  This module runs a
handful of fixed-seed workloads and reduces each to one SHA-256:

* ``compressed`` — a house/echo home, 10 owner commands and 7 replay
  attacks with the compressed (~1 min) idle gaps;
* ``sevenday`` — the same kind of home, 30 + 23 episodes ~1 h apart;
* ``sevenday_packets`` — a short seven-day home (4 + 3 episodes) reduced
  packet by packet, as a ``Network`` observer sees every delivery, plus
  its metrics snapshot: pins the idle heartbeat round trip itself, not
  only the guard stream it feeds.  Its packets take the observed route
  (``Network._deliver``); the unobserved delivery path is pinned by the
  other guard digests and by tests/test_net_proxy.py's frame test;
* ``loadtest.<mode>`` — one smoke-sized 4-speaker loadtest cell per
  guard mode;
* ``fleet_full`` — a 2-home full-fidelity fleet table;
* ``fleet_fast`` — a 512-home reduced-order fleet table in 128-home
  chunks (its RSSI surfaces come from the propagation model);
* ``floor_traces`` — every RSSI sample of every floor trace a
  compressed house home records (its classifier-training walks and the
  live stair traces, some of which a post-stair teleport interrupts),
  then the training-trace features of one house pool template build;
* ``report`` — every section name and text of ``generate_report`` at
  scale 0.3 (the per-section wall-clock ``elapsed`` left out);
* ``tables.<experiment>`` — the rendered table of one small run of
  each remaining grid experiment: resilience, loadtest and
  recognition-robustness smoke grids, a two-home campaign, the
  hold-endurance sweep and a three-point sensitivity sweep.

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

from repro.core.floor import TraceClassifier
from repro.experiments import (
    campaign, fleet, hold_endurance, loadtest, pool, recognition_robustness,
    report, resilience, scenarios, sensitivity, synthesis,
)
from repro.experiments import workload as workload_module
from repro.home.devices import MobileDevice
from repro.net.link import PacketObserver
from repro.net.packet import Packet

DIGESTS_PATH = pathlib.Path(__file__).parent / "goldens" / "digests.json"

COMPRESSED_COUNTS = (10, 7)
SEVEN_DAY_COUNTS = (30, 23)
PACKET_HOME_COUNTS = (4, 3)
LOADTEST_SPEAKERS = 4
LOADTEST_RATE = "high"
LOADTEST_UTTERANCES = 8
FLEET_HOMES = 2
FAST_FLEET_HOMES = 512
FAST_FLEET_CHUNK = 128
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


def _loadtest_cell(mode: str) -> Callable[[], str]:
    def run() -> str:
        built = []
        real_build = loadtest.build_scenario

        def capture(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        loadtest.build_scenario = capture
        try:
            cell = loadtest.run_loadtest_cell(
                LOADTEST_SPEAKERS, LOADTEST_RATE, mode, seed=303,
                utterances=LOADTEST_UTTERANCES)
        finally:
            loadtest.build_scenario = real_build
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
    "resilience": lambda: resilience.run_resilience(scale=0.1, testbeds=("office",)),
    "loadtest": lambda: loadtest.run_loadtest(smoke=True),
    "recognition_robustness": lambda: recognition_robustness.run_recognition_robustness(
        smoke=True),
    "campaign": lambda: campaign.run_campaign(homes=2),
    "hold_endurance": lambda: hold_endurance.run_hold_endurance(),
    "sensitivity": lambda: sensitivity.run_sensitivity(
        rssi_margins=(0.0, 6.0), decision_timeouts=(1.0,), scale=10),
}


RUNS: Dict[str, Callable[[], str]] = {
    "compressed": compressed,
    "sevenday": sevenday,
    "sevenday_packets": sevenday_packets,
    **{f"loadtest.{mode}": _loadtest_cell(mode) for mode in loadtest.MODES},
    "fleet_full": fleet_full,
    "fleet_fast": fleet_fast,
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
