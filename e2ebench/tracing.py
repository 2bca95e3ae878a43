"""Per-layer wall-clock attribution, installed from outside the program.

The traced pass wraps each layer's public entry points (the table in
:data:`LAYERS`, named after the repo's modules) with a span recorder.
Spans fold on the fly into per-layer *self* time: a span's duration
minus the part of it that child spans cover, so the layers partition
the traced wall time exactly.  Only spans opened inside a benchmark
root span (one timed unit of work) are recorded; set-up, per-home
world builds and digesting stay out of the fold.

Nothing under ``src/`` knows about this module.  :class:`Tracer`
patches class attributes and module globals on entry and puts every
original object back on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from typing import Dict, Iterator, List, Optional, Tuple

# layer -> entry points.  "Class.method" wraps one function defined on
# the class, "Class.*" every public function the class itself defines,
# and a bare name a module-level function (patched wherever it was
# imported to).  ``Simulator.run_until`` self time includes every
# callback the kernel fires into a private method: that glue has no
# public boundary of its own.
LAYERS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("sim", (("repro.sim.simulator", "Simulator.run_until"),)),
    ("net.link", (("repro.net.link", "Network.send"),
                  ("repro.net.link", "Host.receive"))),
    ("net.tcp", (("repro.net.tcp", "TcpStack.receive"),
                 ("repro.net.tcp", "TcpStack.connect"),
                 ("repro.net.tcp", "TcpConnection.handle"),
                 ("repro.net.tcp", "TcpConnection.send_record"),
                 ("repro.net.tcp", "TcpConnection.close"))),
    ("net.proxy", (("repro.net.proxy", "TransparentProxy.intercept"),
                   ("repro.net.proxy", "TransparentProxy.release_held"),
                   ("repro.net.proxy", "TransparentProxy.discard_held"),
                   ("repro.net.proxy", "UdpForwarder.handle"),
                   ("repro.net.proxy", "HoldBudget.try_charge"),
                   ("repro.net.proxy", "HoldBudget.credit"))),
    ("core.recognition", (("repro.core.recognition", "TrafficRecognition.observe"),
                          ("repro.core.recognition", "TrafficRecognition.observe_snoop"))),
    ("core.decision", (("repro.core.handler", "TrafficHandler.on_window_classified"),
                       ("repro.core.handler", "TrafficHandler.on_hold_overflow"),
                       ("repro.core.decision", "DecisionModule.decide"),
                       ("repro.core.decision", "DecisionCoordinator.decide"),
                       ("repro.core.decision", "RssiDecisionMethod.decide"))),
    ("home.push", (("repro.home.push", "PushService.request_rssi"),
                   ("repro.home.push", "PushService.request_group"))),
    ("radio", (("repro.radio.bluetooth", "BluetoothScanner.scan"),
               ("repro.radio.bluetooth", "BluetoothScanner.instant_rssi"),
               ("repro.radio.propagation", "PropagationModel.*"),
               ("repro.radio.floorplan", "FloorPlan.walls_crossed"),
               ("repro.radio.floorplan", "FloorPlan.walls_crossed_many"),
               ("repro.radio.floorplan", "FloorPlan.walls_crossed_scalar"))),
    ("core.floor", (("repro.core.floor", "FloorLevelTracker.*"),
                    ("repro.core.floor", "TraceClassifier.*"))),
    ("speakers", (("repro.speakers.base", "SmartSpeaker.*"),
                  ("repro.speakers.echo_dot", "EchoDot.*"),
                  ("repro.speakers.google_home", "GoogleHomeMini.*"),
                  ("repro.speakers.cloud", "AvsCloud.*"),
                  ("repro.speakers.cloud", "GoogleCloud.*"),
                  ("repro.speakers.cloud", "MiscCloud.*"),
                  ("repro.speakers.interaction", "EchoTrafficModel.*"),
                  ("repro.speakers.interaction", "GoogleTrafficModel.*"))),
    ("home", (("repro.home.environment", "HomeEnvironment.play_utterance"),
              ("repro.home.person", "Person.*"),
              ("repro.home.devices", "MobileDevice.*"),
              ("repro.home.devices", "MotionSensor.*"))),
    ("experiments.scenarios", (("repro.experiments.scenarios", "build_scenario"),
                               ("repro.experiments.scenarios", "add_echo_speaker"))),
    ("experiments.pool", (("repro.experiments.pool", "ScenarioPool.template"),
                          ("repro.experiments.pool", "ScenarioPool.acquire"))),
    ("experiments.fleet", (("repro.experiments.fleet", "run_fleet"),
                           ("repro.experiments.fleet", "run_fleet_chunk"),
                           ("repro.experiments.fleet", "simulate_home"),
                           ("repro.experiments.fleet", "simulate_home_full"),
                           ("repro.experiments.fleet", "FleetAccumulator.add_home"),
                           ("repro.experiments.fleet", "FleetAccumulator.merge_payload"))),
    ("experiments.synthesis", (("repro.experiments.synthesis", "PopulationModel.home"),
                               ("repro.experiments.synthesis", "fleet_world"),
                               ("repro.experiments.synthesis", "warm_worlds"))),
    ("experiments.parallel", (("repro.experiments.parallel", "ExperimentEngine.run_fold"),)),
    ("experiments.workload", (("repro.experiments.workload", "SevenDayWorkload.run"),
                              ("repro.experiments.loadtest", "run_loadtest_cell"))),
)

LAYER_NAMES = tuple(name for name, _ in LAYERS)

# Which end-to-end metric a change to each layer should move, and on
# which workloads, written down before measuring.  Every layer records
# calls in the timed region of each workload named here.
EXPECTED_MOVES: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "sim": (("ms_per_command", ("guard-sevenday",)),),
    "net.link": (("ms_per_command", ("guard-sevenday", "guard-compressed")),),
    "net.tcp": (("ms_per_command", ("guard-sevenday",)),),
    "net.proxy": (("ms_per_command", ("guard-multispeaker", "guard-compressed")),),
    "core.recognition": (("ms_per_command", ("guard-compressed",)),),
    "core.decision": (("ms_per_command", ("guard-multispeaker",)),),
    "home.push": (("ms_per_command", ("guard-multispeaker",)),),
    "radio": (("ms_per_command", ("guard-compressed",)), ("homes_per_s", ("fleet-full",))),
    "core.floor": (("ms_per_command", ("guard-compressed",)),),
    "speakers": (("ms_per_command", ("guard-sevenday",)),),
    "home": (("ms_per_command", ("guard-compressed",)),),
    "experiments.scenarios": (("ms_per_command", ("guard-multispeaker",)),),
    "experiments.pool": (("homes_per_s", ("fleet-full",)),),
    "experiments.fleet": (("homes_per_s", ("fleet-fast",)),),
    "experiments.synthesis": (("homes_per_s", ("fleet-fast",)),),
    "experiments.parallel": (("homes_per_s", ("fleet-fast-w2",)),),
    "experiments.workload": (("ms_per_command", ("guard-compressed", "guard-sevenday",
                                                 "guard-multispeaker")),),
}

# The benchmark's own root span; its self time is whatever a unit does
# outside every wrapped layer.
ROOT_LAYER = "bench"

# Raw spans kept for the first traced unit (enough for one compressed
# guard home; the fold itself never stores spans).
RAW_SPAN_CAP = 200_000

_COUNTED_RESULT = "Simulator.run_until"  # returns the events it fired


def _public_functions(cls: type) -> Iterator[str]:
    for name, value in vars(cls).items():
        if (not name.startswith("_") and isinstance(value, types.FunctionType)
                and not inspect.isgeneratorfunction(value)):
            yield name


def resolve_targets() -> List[Tuple[str, object, str, str]]:
    """``(layer, owner, attribute, label)`` for every wrapped entry point.

    ``owner`` is a class for methods and the defining module for
    functions; a function's other import sites are found at install.
    """
    targets = []
    for layer, entries in LAYERS:
        for module_name, spec in entries:
            module = importlib.import_module(module_name)
            if "." not in spec:
                targets.append((layer, module, spec, spec))
                continue
            class_name, attribute = spec.split(".", 1)
            cls = getattr(module, class_name)
            names = list(_public_functions(cls)) if attribute == "*" else [attribute]
            for name in names:
                if not isinstance(vars(cls).get(name), types.FunctionType):
                    raise AttributeError(f"{module_name}.{class_name} defines no "
                                         f"function {name!r}")
                targets.append((layer, cls, name, f"{class_name}.{name}"))
    return targets


class SpanFold:
    """Running per-layer totals for one traced process."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES + (ROOT_LAYER,)}
        self.calls: Dict[str, int] = {}
        self.layer_of: Dict[str, str] = {}
        self.events = 0  # events fired by the simulation kernel
        self.root_wall = 0.0
        self.raw: Optional[List[tuple]] = None
        self.unit: Optional[int] = None
        # One frame per open span: [child seconds, span id].
        self.stack: List[list] = []
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def keep_raw(self, unit: int) -> None:
        """Record raw spans while ``unit`` runs (the first traced unit)."""
        self.raw = []
        self.unit = unit

    def stop_raw(self) -> None:
        self.unit = None


def _wrap(fn, layer: str, label: str, fold: SpanFold):
    clock = time.perf_counter
    self_s = fold.self_s
    calls = fold.calls
    calls.setdefault(label, 0)
    fold.layer_of[label] = layer
    count_result = label == _COUNTED_RESULT

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = fold.stack
        if not stack:
            return fn(*args, **kwargs)
        parent = stack[-1]
        frame = [0.0, fold.new_id()]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stack.pop()
            parent[0] += elapsed
            self_s[layer] += elapsed - frame[0]
            calls[label] += 1
            raw = fold.raw
            if fold.unit is not None and len(raw) < RAW_SPAN_CAP:
                raw.append((frame[1], parent[1], layer, label, start, start + elapsed,
                            fold.unit))
        if count_result:
            fold.events += result
        return result

    return traced


class Tracer:
    """Context manager: wrap every entry point in :data:`LAYERS`.

    Install it before any world is built, so callbacks captured as
    bound methods at build time resolve to the wrappers.
    """

    def __init__(self) -> None:
        self.fold = SpanFold()
        self._patches: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for layer, owner, attribute, label in resolve_targets():
                original = vars(owner)[attribute]
                wrapper = _wrap(original, layer, label, self.fold)
                sites = [(owner, attribute)]
                if isinstance(owner, types.ModuleType):
                    sites = [(module, key) for module in list(sys.modules.values())
                             if getattr(module, "__name__", "").split(".")[0] == "repro"
                             for key, value in list(vars(module).items())
                             if value is original]
                for site, key in sites:
                    self._patches.append((site, key, original))
                    setattr(site, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __exit__(self, *exc) -> None:
        self.restore()

    def root(self) -> "_RootSpan":
        return _RootSpan(self.fold)


class _RootSpan:
    """One timed call: the parent of every span recorded inside it."""

    def __init__(self, fold: SpanFold) -> None:
        self.fold = fold

    def __enter__(self) -> None:
        self.frame = [0.0, self.fold.new_id()]
        self.fold.stack.append(self.frame)
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self.start
        fold = self.fold
        fold.stack.pop()
        fold.self_s[ROOT_LAYER] += elapsed - self.frame[0]
        fold.root_wall += elapsed
        if fold.unit is not None and len(fold.raw) < RAW_SPAN_CAP:
            fold.raw.append((self.frame[1], None, ROOT_LAYER, ROOT_LAYER, self.start,
                             self.start + elapsed, fold.unit))


class _NullRoot:
    """Stands in for a root span when tracing is off."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_ROOT = _NullRoot()


def null_root() -> _NullRoot:
    return _NULL_ROOT


def layer_calls(fold: SpanFold) -> Dict[str, int]:
    """Calls per layer (summed over its entry points)."""
    totals = {name: 0 for name in LAYER_NAMES}
    for label, count in fold.calls.items():
        totals[fold.layer_of[label]] += count
    return totals
