"""Discrete-event simulation kernel.

This package provides the time base every other subsystem runs on: a
monotonic simulated clock, a priority event queue, a :class:`Simulator`
facade with one-shot and periodic scheduling, and named, seeded random
number streams (:class:`RngHub`) so that every experiment in the
reproduction is deterministic for a given seed.
"""

from repro.sim.clock import SimClock
from repro.sim.events import Event, EventHandle, EventQueue
from repro.sim.process import PeriodicTask
from repro.sim.random import RngHub, bounded_lognormal
from repro.sim.simulator import Simulator

__all__ = [
    "Event",
    "EventHandle",
    "EventQueue",
    "PeriodicTask",
    "RngHub",
    "SimClock",
    "Simulator",
    "bounded_lognormal",
]
