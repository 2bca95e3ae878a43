"""Committed equivalence digests: fixed runs whose outputs must not move.

A speed-only change to the simulator, the network stack or the guard
must leave every simulated outcome byte-identical.  This module runs a
handful of fixed-seed workloads and reduces each to one SHA-256:

* ``compressed`` — a house/echo home, 10 owner commands and 7 replay
  attacks with the compressed (~1 min) idle gaps;
* ``sevenday`` — the same kind of home, 30 + 23 episodes ~1 h apart;
* ``loadtest.<mode>`` — one smoke-sized 4-speaker loadtest cell per
  guard mode;
* ``fleet_full`` — a 2-home full-fidelity fleet table.

Guard runs digest the guard's command-event stream plus the final sim
clock; loadtest cells add the cell row and its metrics snapshot, and
the fleet digests its rendered table.  ``tests/goldens/digests.json``
holds the expected values; regenerate it (only after a change that is
*meant* to move simulated behaviour) with::

    PYTHONPATH=src python -m tests.equivalence --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
from typing import Callable, Dict

from repro.experiments import fleet, loadtest, scenarios, synthesis
from repro.experiments import workload as workload_module

DIGESTS_PATH = pathlib.Path(__file__).parent / "goldens" / "digests.json"

COMPRESSED_COUNTS = (10, 7)
SEVEN_DAY_COUNTS = (30, 23)
LOADTEST_SPEAKERS = 4
LOADTEST_RATE = "high"
LOADTEST_UTTERANCES = 8
FLEET_HOMES = 2


def guard_digest(scenario, extra: bytes = b"") -> str:
    """SHA-256 of the guard's event stream and the final sim clock."""
    digest = hashlib.sha256()
    for item in scenario.guard.log.event_stream():
        digest.update(repr(item).encode())
    digest.update(repr(scenario.sim.now).encode())
    digest.update(extra)
    return digest.hexdigest()


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


def fleet_full() -> str:
    config = fleet.FleetConfig(
        homes=FLEET_HOMES, chunk_size=FLEET_HOMES, fidelity="full", seed=404,
        population=synthesis.PopulationModel())
    table = fleet.run_fleet(config, workers=1).render()
    return hashlib.sha256(table.encode()).hexdigest()


RUNS: Dict[str, Callable[[], str]] = {
    "compressed": compressed,
    "sevenday": sevenday,
    **{f"loadtest.{mode}": _loadtest_cell(mode) for mode in loadtest.MODES},
    "fleet_full": fleet_full,
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
