"""Recompute the committed equivalence digests (tests/goldens/digests.json).

Each digest pins one fixed-seed run end to end (see
:mod:`tests.equivalence`); a performance change must leave every one of
them unchanged.
"""

from __future__ import annotations

import pytest

from tests import equivalence


def test_committed_digests_cover_every_run():
    assert sorted(equivalence.load_committed()) == sorted(equivalence.RUNS)


@pytest.mark.parametrize("name", sorted(equivalence.RUNS))
def test_digest_matches_committed(name):
    assert equivalence.RUNS[name]() == equivalence.load_committed()[name]


def test_observing_a_network_is_inert():
    # An observer moves every delivery onto the observed route
    # (Network._deliver around the receiver); the guard must not notice.
    with equivalence.observed_networks(lambda packet, scope: None):
        observed = equivalence.compressed()
    assert observed == equivalence.compressed()
