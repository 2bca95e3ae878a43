"""Baseline defenses the paper compares against (implicitly or explicitly).

* :mod:`repro.baselines.naive_spike` — the strawman traffic detector of
  Figure 3: every spike after a no-traffic period is treated as a voice
  command, so the Echo's response spikes get held too, adding delays.
* :mod:`repro.baselines.firewall` — a blocking firewall that drops
  packets instead of holding them: decisions cost retransmissions,
  broken sessions, and repeated commands.
"""

from repro.baselines.firewall import FirewallTap
from repro.baselines.naive_spike import NaiveSpikeDetector

__all__ = ["FirewallTap", "NaiveSpikeDetector"]
