"""Warm-start scenario pool for full-fidelity fleet simulation.

``--fidelity full`` simulates every home at packet level.  Building one
wired world (:func:`~repro.experiments.scenarios.build_scenario`) costs
two orders of magnitude more than *running* a home's seven-day command
workload through it: threshold-calibration walks, speaker boot/settle
traffic, and — on the house testbed — ninety-odd trace-classifier
training walks dominate.  Rebuilding that world from scratch per home
is what kept full fidelity off the fleet path.

This module amortizes the build with a **snapshot/reset protocol**:

1. **One template per world bucket.**  Homes synthesized by
   :mod:`repro.experiments.synthesis` quantize into a small set of
   ``(testbed, deployment, plan_scale, owner_count, device_kind)``
   buckets.  The pool builds one fully wired scenario per bucket from a
   bucket-derived seed — calibration walks and training walks really
   run, once per bucket per process — with an unarmed fault injector
   wired through every component so per-home fault plans can be armed
   later.

2. **Pickled snapshot with shared immutables.**  The template world is
   pickled once after its build, with the heavyweight value-transparent
   objects (propagation model + caches, testbed geometry, command
   corpus, fitted trace classifier) written as persistent references.
   ``acquire(spec)`` unpickles it: every home shares those objects and
   gets a private copy of everything stateful — simulator, event queue,
   hosts, TCP stacks, RNG generators.  Every persistent callback in the
   substrate is a bound method, a ``functools.partial`` over a bound
   method, or a callable object precisely because pickle rebinds those
   into the restored graph; it rejects a stored closure or lambda, so
   such a template fails to build with :class:`~repro.errors.SnapshotError`.

3. **Rehome.**  The restored world is re-keyed to the target home.
   Its RNG hub and the hub's generators are pickled as references too,
   and the restore binds them to a new hub at the home's derived seed:
   each stream is built once, on its first reference, in the state
   :meth:`repro.sim.random.RngHub.reseed` would give it, and a stream
   only the hub held is not built at all.  The fault injector re-arms
   with the home's plan.  Ids need no reset: packet
   numbers count on the world's :class:`~repro.net.link.Network` and
   interaction ids on its
   :class:`~repro.home.environment.HomeEnvironment`, so both travel in
   the snapshot and resume where the template's build left off.

The contract — enforced by tests — is that a restored home produces
**byte identical** guard event streams to a freshly built home after
:func:`rehome` (:func:`build_home_cold`).
"""

from __future__ import annotations

import copyreg
import io
import pickle
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.core.config import VoiceGuardConfig
from repro.errors import SnapshotError
from repro.experiments.parallel import derive_seed
from repro.experiments.scenarios import Scenario, build_scenario
from repro.experiments.synthesis import HomeSpec, fleet_world
from repro.faults.plan import FaultPlan
from repro.sim.random import RngHub

# (testbed, deployment, plan_scale, owner_count, device_kind): the
# fields of a HomeSpec that select *which world gets built*; everything
# else about a home is applied per copy by ``rehome``.
PoolKey = Tuple[str, int, float, int, str]


def pool_key(spec: HomeSpec) -> PoolKey:
    """The world-bucket key a spec's home belongs to."""
    return (spec.testbed, int(spec.deployment), float(spec.plan_scale),
            int(spec.owner_count), spec.device_kind)


def template_seed(key: PoolKey) -> int:
    """The bucket-derived seed a template world is built from.

    Deliberately *not* a per-home seed: every home in a bucket restores
    from the same template, and the cold path builds from the same seed
    so pooled and cold homes are identical by construction.  Per-home
    randomness enters only through ``rehome``'s reseed.
    """
    testbed, deployment, plan_scale, owner_count, device_kind = key
    return derive_seed(0, "fleet.pool", testbed, deployment,
                       f"{plan_scale:.6f}", owner_count, device_kind)


def fleet_guard_config() -> VoiceGuardConfig:
    """The retry policy the fleet's full-fidelity guard runs (matching
    the reduced-order model's attempt count; see repro.experiments.fleet)."""
    from repro.experiments.fleet import PUSH_ATTEMPTS

    return VoiceGuardConfig(push_retries=PUSH_ATTEMPTS - 1)


def home_fault_plan(spec: HomeSpec) -> Optional[FaultPlan]:
    """The per-home fault plan (same derivation both fidelities use)."""
    if spec.push_loss <= 0.0:
        return None
    return FaultPlan(
        seed=derive_seed(spec.seed, "home.faults"),
        push_loss=spec.push_loss,
        report_loss=0.5 * spec.push_loss,
    )


def _build_bucket_scenario(key: PoolKey) -> Scenario:
    """One wired world for ``key``, built from the bucket seed.

    The scaled testbed comes from the fleet world cache — one geometry
    build + validation per bucket per process, shared with the fast
    fidelity — instead of a per-call ``scale_testbed``.
    """
    testbed_name, deployment, plan_scale, owner_count, device_kind = key
    world = fleet_world(testbed_name, deployment, plan_scale)
    return build_scenario(
        testbed_name,
        "echo",
        deployment=deployment,
        seed=template_seed(key),
        owner_count=owner_count,
        device_kind=device_kind,
        config=fleet_guard_config(),
        fault_plan=None,
        testbed=world.testbed,
        with_fault_injector=True,
    )


def _shared_immutables(scenario: Scenario) -> Tuple[object, ...]:
    """Objects every home in a bucket may share rather than copy.

    All are value-transparent under the simulation's semantics: the
    propagation model's memo caches are pure functions of positions,
    the testbed/plan geometry is never mutated after validation, the
    command corpus is read-only, and the trace classifier is a fitted
    constant.  Sharing them cuts the per-home copy from the full world
    graph to just the stateful simulation layer.
    """
    shared: List[object] = [
        scenario.env.model,
        scenario.env.testbed,
        scenario.env.testbed.plan,
        scenario.corpus,
    ]
    if scenario.trace_classifier is not None:
        shared.append(scenario.trace_classifier)
    return tuple(shared)


def _home_seed(spec: HomeSpec) -> int:
    """The seed a home's RNG hub is keyed to."""
    return derive_seed(spec.seed, "fleet.rehome")


def rehome(scenario: Scenario, spec: HomeSpec) -> None:
    """Re-key a just-built world to one home (the cold path's side of
    the byte-identity :meth:`ScenarioPool.acquire` keeps):

    * the RNG hub reseeds every stream in place from the home's seed;
    * the environment's (always present, possibly unarmed) fault
      injector re-arms with the home's plan.

    Every counter a world numbers things with is part of the world, so
    nothing else needs resetting.
    """
    scenario.env.rng.reseed(_home_seed(spec))
    _rearm_faults(scenario, spec)


def _rearm_faults(scenario: Scenario, spec: HomeSpec) -> None:
    if scenario.env.faults is not None:
        scenario.env.faults.rearm(home_fault_plan(spec))


@lru_cache(maxsize=None)
def _plain_class(cls: type) -> bool:
    """Whether instances of ``cls`` pickle as exactly their ``__dict__``
    and take it back through plain ``setattr``: a class of this package
    with default pickling and ``__setattr__``, an instance dict, and no
    slots or builtin base (whose state the dict would not carry)."""
    return (
        cls.__module__.startswith("repro.")
        and cls.__reduce_ex__ is object.__reduce_ex__
        and cls.__reduce__ is object.__reduce__
        and cls.__setattr__ is object.__setattr__
        and getattr(cls, "__getstate__", None) is getattr(object, "__getstate__", None)
        and not hasattr(cls, "__setstate__")
        and any("__dict__" in vars(base) for base in cls.__mro__)
        and all(base is object or (base.__module__ != "builtins"
                                   and not vars(base).get("__slots__"))
                for base in cls.__mro__)
    )


class _SnapshotPickler(pickle.Pickler):
    """Pickles a world, writing each shared immutable as a reference.

    Plain objects are written with their ``__dict__`` as *slot state*,
    which the unpickler applies with ``setattr`` rather than by filling
    a materialized instance dict.  Restored objects thus get the same
    compact attribute storage as constructed ones; on CPython 3.11+ a
    materialized dict would make every attribute access in the restored
    world take the interpreter's slow path.

    The world's RNG hub is written as the reference
    ``("rng",)`` and each of its generators as ``("rng", name)``:
    :meth:`ScenarioPool.acquire` binds them to the home's own hub, which
    builds each stream on its first reference.
    """

    def __init__(self, file: io.BytesIO, shared: Tuple[object, ...], hub: RngHub) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._shared_index: Dict[int, object] = {
            id(obj): index for index, obj in enumerate(shared)}
        self._shared_index[id(hub)] = ("rng",)
        for name, generator in hub._streams.items():
            self._shared_index[id(generator)] = ("rng", name)

    def persistent_id(self, obj: object) -> Optional[object]:
        return self._shared_index.get(id(obj))

    def reducer_override(self, obj: object):
        cls = type(obj)
        if not _plain_class(cls):
            return NotImplemented
        return copyreg.__newobj__, (cls,), (None, obj.__dict__)


def snapshot(scenario: Scenario, shared: Tuple[object, ...], key: PoolKey) -> bytes:
    """Pickle ``scenario`` with ``shared`` written as references.

    Raises :class:`SnapshotError` naming the bucket when the world holds
    state pickle rejects (a closure, a lambda, a generator, ...).
    """
    buffer = io.BytesIO()
    try:
        _SnapshotPickler(buffer, shared, scenario.env.rng).dump(scenario)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise SnapshotError(f"pool template {key!r} cannot be snapshotted: {exc}") from exc
    return buffer.getvalue()


@dataclass
class _Template:
    """A pickled pristine bucket world plus its shared immutables."""

    blob: bytes
    shared: Tuple[object, ...]


def restore(template: _Template, hub: RngHub) -> Scenario:
    """Unpickle ``template``'s world: its shared immutables are the
    template's own objects, and its RNG hub and streams are ``hub``
    and ``hub``'s streams, each built on its first reference."""

    def load(pid: object) -> object:
        if type(pid) is int:
            return template.shared[pid]
        return hub if len(pid) == 1 else hub.stream(pid[1])

    unpickler = pickle.Unpickler(io.BytesIO(template.blob))
    unpickler.persistent_load = load
    return unpickler.load()


class ScenarioPool:
    """Per-process cache of bucket templates with snapshot restore.

    ``acquire(spec)`` returns a fully wired scenario for ``spec``'s
    home, building the bucket's template on first touch and restoring
    from it afterwards.  The returned scenario is private to the
    caller; the template is only a pickle, so it is never run and never
    mutated.
    """

    def __init__(self) -> None:
        self._templates: Dict[PoolKey, _Template] = {}
        self.template_builds = 0
        self.restores = 0

    def template(self, key: PoolKey) -> _Template:
        """The bucket's template, building it on first use."""
        entry = self._templates.get(key)
        if entry is None:
            scenario = _build_bucket_scenario(key)
            shared = _shared_immutables(scenario)
            entry = _Template(blob=snapshot(scenario, shared, key), shared=shared)
            self._templates[key] = entry
            self.template_builds += 1
        return entry

    def acquire(self, spec: HomeSpec) -> Scenario:
        """A private world for ``spec``: the snapshot restored with a
        hub at the home's seed, and the home's fault plan armed."""
        scenario = restore(self.template(pool_key(spec)), RngHub(_home_seed(spec)))
        _rearm_faults(scenario, spec)
        self.restores += 1
        return scenario

    def clear(self) -> None:
        """Drop cached templates (tests / memory pressure)."""
        self._templates.clear()


def build_home_cold(spec: HomeSpec) -> Scenario:
    """Build ``spec``'s world from scratch, without the pool.

    Same bucket seed, same rehome — so the result is byte-identical to
    ``ScenarioPool.acquire(spec)`` — but with the full build
    re-simulated per call instead of restored from a pickle.  This is
    the equality oracle's reference side.
    """
    scenario = _build_bucket_scenario(pool_key(spec))
    rehome(scenario, spec)
    return scenario

