"""Check that host-speed scaling keeps a known slowdown at its full size.

    python3 e2ebench/check_scaling.py                  # host as it is
    python3 e2ebench/check_scaling.py --hog cpu        # plus a busy loop on the other CPU
    python3 e2ebench/check_scaling.py --hog memory     # plus a cache-thrashing loop

The benchmark reports host times scaled by a sampled dict loop
(``hostspeed.py``).  If a change raised cache pressure, the loop could
slow with it and shrink the change's own scaled time.  This script adds
a fixed amount of extra work to every packet the network sends
(``Network.send``), in two kinds:

``cpu``     a small heap push/pop loop, simulator-like and cache-resident;
``memory``  a strided read of 256 KiB at a moving offset in 32 MiB, which
            evicts the caches the simulator and the loop both use.

and runs guard-compressed homes in pairs, plain and with the extra work,
alternating which goes first, in one fresh process per kind.  Each pair
runs back to back, so the raw wall-clock ratio of a pair is the true
slowdown at that moment; scaling keeps the slowdown whole if the scaled
ratio matches it.  For ``cpu`` the extra work is also timed alone, and
its expected cost per command is printed beside the measured one.

Prints one table row per kind and exits 0; it checks nothing by itself.
Never run it at the same time as the benchmark.
"""

from __future__ import annotations

import argparse
import heapq
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 7
HOMES = 4
CPU_STEPS = 24
MEMORY_BYTES = 32 << 20
MEMORY_WINDOW = 256 << 10
MEMORY_STRIDE = 64


def cpu_work(state) -> None:
    heap = []
    for i in range(CPU_STEPS):
        heapq.heappush(heap, ((i * 7919) % 97, i))
    while heap:
        heapq.heappop(heap)


def memory_work(state) -> None:
    buf, offset = state["buf"], state["offset"]
    sum(buf[offset:offset + MEMORY_WINDOW:MEMORY_STRIDE])
    state["offset"] = (offset + MEMORY_WINDOW + 4096) % (MEMORY_BYTES - MEMORY_WINDOW)


KINDS = {"cpu": cpu_work, "memory": memory_work}


def run_kind(kind: str, pairs: int) -> dict:
    """Paired plain and injected units of guard-compressed, in this process."""
    import bench_e2e

    bench_e2e._ensure_paths()
    import hostspeed
    import tracing
    import workloads
    from repro.net import link

    extra = KINDS[kind]
    state = {"on": False, "calls": 0, "buf": bytearray(MEMORY_BYTES), "offset": 0}
    send = link.Network.send

    def injected_send(self, origin, packet):
        if state["on"]:
            state["calls"] += 1
            extra(state)
        return send(self, origin, packet)

    link.Network.send = injected_send
    try:
        work = workloads.WORKLOADS["guard-compressed"](SEED, False)
        work.setup(0)
        rows = []
        for i in range(pairs):
            home = i % HOMES
            pair = {}
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                state["on"], state["calls"] = on, 0
                unit = work.run_unit(home, tracing.null_root)
                assert not unit.failed and unit.commands
                pair[on] = (1000 * unit.wall_s / unit.commands,
                            1000 * unit.scaled_s / unit.commands,
                            state["calls"] / unit.commands)
            state["on"] = False
            alone = None
            if kind == "cpu":
                # The extra work of one command, timed alone and scaled.
                calls = round(pair[True][2])
                with hostspeed.HostSpeed() as speed:
                    start = time.perf_counter()
                    for _ in range(calls):
                        extra(state)
                    wall = time.perf_counter() - start
                alone = 1000 * speed.scale(wall)
            rows.append({"plain": pair[False], "injected": pair[True], "alone_ms": alone})
        work.close()
    finally:
        link.Network.send = send
    return summarize(kind, rows)


def summarize(kind: str, rows) -> dict:
    med = statistics.median
    out = {"kind": kind, "pairs": len(rows)}
    for clock, col in (("wall", 0), ("scaled", 1)):
        out[f"{clock}_plain_ms"] = med(r["plain"][col] for r in rows)
        out[f"{clock}_delta_ms"] = med(r["injected"][col] - r["plain"][col] for r in rows)
        out[f"{clock}_ratio"] = med(r["injected"][col] / r["plain"][col] for r in rows)
    out["slowness"] = med(r["plain"][0] / r["plain"][1] for r in rows)
    out["sends_per_command"] = med(r["injected"][2] for r in rows)
    if rows[0]["alone_ms"] is not None:
        out["expected_delta_ms"] = med(r["alone_ms"] for r in rows)
    return out


def _hog(kind: str) -> subprocess.Popen:
    body = {"cpu": "while True: sum(range(1000))",
            "memory": ("b = bytearray(64 << 20)\n"
                       "while True:\n"
                       "    for o in range(0, len(b) - 4096, 1 << 16): sum(b[o:o + 4096:64])")}
    return subprocess.Popen([sys.executable, "-c", body[kind]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--hog", choices=("none", "cpu", "memory"), default="none")
    parser.add_argument("--kind", choices=tuple(KINDS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.kind:
        print(json.dumps(run_kind(args.kind, args.pairs)))
        return 0

    hog = _hog(args.hog) if args.hog != "none" else None
    try:
        results = []
        for kind in KINDS:
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--kind",
                                   kind, "--pairs", str(args.pairs)],
                                  capture_output=True, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    finally:
        if hog is not None:
            hog.kill()
            hog.wait()
    print(f"hog: {args.hog}, {args.pairs} pairs per kind, guard-compressed seed {SEED}")
    print("| kind | host slowness | plain scaled ms/cmd | wall ratio | scaled ratio | "
          "scaled delta ms/cmd | expected delta ms/cmd |")
    print("|---|---|---|---|---|---|---|")
    for r in results:
        expected = r.get("expected_delta_ms")
        print(f"| {r['kind']} | {r['slowness']:.2f}x | {r['scaled_plain_ms']:.3f} | "
              f"{r['wall_ratio']:.3f} | {r['scaled_ratio']:.3f} | {r['scaled_delta_ms']:.3f} | "
              f"{'—' if expected is None else f'{expected:.3f}'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
