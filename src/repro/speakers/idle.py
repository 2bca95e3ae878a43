"""Idle AVS heartbeat periods in closed form.

Behind the guard, an idle Echo's 30 s heartbeat is one conversation on
four TCP legs (Echo -> proxy -> cloud and back): 8 packets and 18
events per period, most of what a week-long home simulates.  When the
heartbeat fires and the conversation's horizon (the earliest queued
entry that is not one of its keepalive wakeups, or the running
``Simulator.run_until`` deadline) is k >= 2 whole periods away,
:func:`advance_idle_periods` advances k - 1 periods in one step, with
the kernel's own arithmetic, and leaves the last one to the event path.
It writes exactly what the event path would have, observer calls
included, and declines, changing nothing, unless the world is in the
state its period template describes.  DESIGN.md section 9 ("The idle
path") lists what it writes and its preconditions.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING, Optional

from repro.net.packet import Packet, TlsRecordType
from repro.net.proxy import TransparentProxy
from repro.net.tcp import _ACK_FLAG, _PSH_ACK, _TCP
from repro.speakers import signatures as sig
from repro.speakers.cloud import AvsCloud

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.speakers.echo_dot import EchoDot

_PERIOD = sig.HEARTBEAT_PERIOD
_LEN = sig.HEARTBEAT_LEN
_APPLICATION_DATA = TlsRecordType.APPLICATION_DATA
# Packets per period, in send order (each draws one jitter value):
# 1 heartbeat Echo -> proxy, 3 proxy -> cloud, 2 ACK proxy -> Echo,
# 4 ACK cloud -> proxy, 5 reply cloud -> proxy, 6 proxy -> Echo,
# 7 ACK proxy -> cloud, 8 ACK Echo -> proxy.  They are delivered 1..8.
_PACKETS = 8
# Queue pushes per period, in push order: packet 1, the Echo's RTO
# wakeup, the next heartbeat; packet 3, the upstream RTO wakeup, packet
# 2; the cloud's reply send, packet 4; packet 5, the cloud RTO wakeup;
# packet 6, the downstream RTO wakeup, packet 7; packet 8; then each
# leg's keepalive wakeup re-arms for its deadline.
_PUSHES = 18
_HEARTBEAT_PUSH = 2
_KEEPALIVE_PUSH = 14
_FIFO_GAP = 1e-6  # Network.send's per-path FIFO spacing


def advance_idle_periods(echo: "EchoDot") -> bool:
    """Advance ``echo``'s quiet AVS conversation by all whole heartbeat
    periods but the last before its horizon, starting with the one whose
    heartbeat is firing now.  Returns False, having changed nothing, when
    the step does not apply."""
    legs = _quiet_legs(echo)
    if legs is None:
        return False
    conns, proxy, flow, cloud, session = legs
    sim = echo.sim
    queue = sim._queue
    network = echo.network
    t0 = sim._clock._now
    routes = [conn._route for conn in conns]
    # The upstream speaks from the Echo's address, so the Echo and the
    # upstream share one FIFO floor, the downstream and the cloud the
    # other.  With both floors present the map does not grow, so no
    # prune falls due.
    fifo_out, fifo_back = routes[0][3], routes[1][3]
    floors = network._last_delivery
    if floors.get(fifo_out, inf) > t0 or floors.get(fifo_back, inf) > t0:
        return False
    keepalives = [conn._keepalive_timer for conn in conns]
    stale, horizon = _scan(queue._heap, keepalives, sim._until)
    if stale is None or not horizon < inf:
        return False
    if not _in_template_order(conns, routes, network.jitter, stale, t0):
        return False
    # Advance all whole periods before the horizon but the last.
    periods = -1
    t = t0 + _PERIOD
    while t <= horizon:
        periods += 1
        t += _PERIOD
    if periods < 1:
        return False

    # -- commit ------------------------------------------------------------
    jitter = network.jitter
    draws = network._take_jitter(_PACKETS * periods)
    e_base, d_base, u_base, c_base = (route[2] for route in routes)
    reply = AvsCloud.HEARTBEAT_REPLY_DELAY
    idles = [conn.tuning.keepalive_idle for conn in conns]
    observers = network._observers
    # Each leg's queued keepalive wakeup as (time, seq, leg index).
    pending = sorted((entry[0], entry[1], index) for index, entry in enumerate(stale))
    out, back = floors[fifo_out], floors[fifo_back]
    base_seq = queue._next_seq
    t = t0
    for period in range(periods):
        u1, u3, u2, u4, u5, u6, u7, u8 = draws[_PACKETS * period:_PACKETS * (period + 1)]
        a1 = t + e_base * (1.0 + jitter * u1)
        floor = out + _FIFO_GAP
        if a1 < floor:
            a1 = floor
        a3 = a1 + u_base * (1.0 + jitter * u3)
        floor = a1 + _FIFO_GAP
        if a3 < floor:
            a3 = floor
        a2 = a1 + d_base * (1.0 + jitter * u2)
        floor = back + _FIFO_GAP
        if a2 < floor:
            a2 = floor
        a4 = a3 + c_base * (1.0 + jitter * u4)
        floor = a2 + _FIFO_GAP
        if a4 < floor:
            a4 = floor
        s5 = a3 + reply
        a5 = s5 + c_base * (1.0 + jitter * u5)
        floor = a4 + _FIFO_GAP
        if a5 < floor:
            a5 = floor
        a6 = a5 + d_base * (1.0 + jitter * u6)
        floor = a5 + _FIFO_GAP
        if a6 < floor:
            a6 = floor
        a7 = a5 + u_base * (1.0 + jitter * u7)
        floor = a3 + _FIFO_GAP
        if a7 < floor:
            a7 = floor
        a8 = a6 + e_base * (1.0 + jitter * u8)
        floor = a7 + _FIFO_GAP
        if a8 < floor:
            a8 = floor
        out, back = a8, a6
        if observers:
            _observe_period(network, conns, routes, echo._tls, session.tls, period,
                            (t, a1, a2, a3, a4, s5, a5, a6, a7, a8))
        # Last segment in, per leg: Echo 6, downstream 8, upstream 5, cloud 7.
        last_rx = (a6, a8, a5, a7)
        seq = base_seq + _PUSHES * period + _KEEPALIVE_PUSH
        pending = [(last_rx[index] + idles[index], seq + rank, index)
                   for rank, (_, _, index) in enumerate(sorted(pending))]
        t += _PERIOD
    if observers:
        sim._clock._now = t0

    network._packet_count += _PACKETS * periods
    floors[fifo_out], floors[fifo_back] = out, back
    nbytes = _LEN * periods
    for when, _, index in pending:
        conns[index]._advance_idle(nbytes, last_rx[index], when)
    echo._tls.skip(sent=periods, received=0)
    proxy._count_forwarded(flow, periods)
    cloud._answer_idle(session, periods)
    heartbeat = echo._heartbeat_timer
    heartbeat._deadline = heartbeat._next_fire = t
    fresh = [(when, seq, None, keepalives[index]._fire, ())
             for when, seq, index in pending]
    fresh.append((t, base_seq + _PUSHES * (periods - 1) + _HEARTBEAT_PUSH, None,
                  heartbeat._fire, ()))
    queue._reseat(stale, fresh, base_seq + _PUSHES * periods)
    return True


def _quiet_legs(echo: "EchoDot") -> Optional[tuple]:
    """The conversation's legs ``[echo, downstream, upstream, cloud]``
    with the proxy, its flow, the cloud and the cloud session, if every
    layer is quiet; else None."""
    network = echo.network
    conn = echo._conn
    proxy = network._taps.get(echo.ip)
    if not isinstance(proxy, TransparentProxy) or network.wan_loss > 0.0:
        return None
    down = proxy.stack._connections.get((conn.remote, conn.local))
    flow = None if down is None else proxy.open_flows.get((_TCP, down.remote, down.local))
    if flow is None or flow.upstream is None or not proxy.forwards_idle(flow):
        return None
    up = flow.upstream
    cloud = network._hosts.get(up.remote.ip)
    if not isinstance(cloud, AvsCloud):
        return None
    cloud_conn = cloud.stack._connections.get((up.remote, up.local))
    if cloud_conn is None:
        return None
    conns = [conn, down, up, cloud_conn]
    if not all(leg._idle_ready() for leg in conns):
        return None
    # Each record a leg sends is the next one its peer expects.
    if (conn.snd_next != down.rcv_next or down.snd_next != conn.rcv_next
            or up.snd_next != cloud_conn.rcv_next or cloud_conn.snd_next != up.rcv_next):
        return None
    session = cloud._idle_session(cloud_conn, echo._tls.records_sent)
    if session is None:
        return None
    return conns, proxy, flow, cloud, session


def _scan(heap: list, keepalives: list, until: float):
    """``(stale, horizon)``: each leg's queued keepalive wakeup (None if
    one is missing), and the earliest time among every other live entry
    and ``until``.  Entries are told apart by the timer that owns them,
    never by function identity."""
    owners = {id(timer): index for index, timer in enumerate(keepalives)}
    stale = [None] * len(keepalives)
    horizon = until
    for entry in heap:
        event = entry[2]
        if event is None:
            index = owners.get(id(getattr(entry[3], "__self__", None)))
            if (index is not None and stale[index] is None
                    and entry[0] == keepalives[index]._next_fire):
                stale[index] = entry
                continue
        elif event.cancelled:
            continue
        if entry[0] < horizon:
            horizon = entry[0]
    if any(entry is None for entry in stale):
        return None, horizon
    return stale, horizon


def _in_template_order(conns: list, routes: list, jitter: float, stale: list,
                       t0: float) -> bool:
    """Whether every period runs in template order.

    ``span`` bounds how long after its heartbeat a period's last packet
    lands (every hop at full jitter plus its FIFO gap, twice over, and
    the cloud's reply delay).  Within it each ACK must land before its
    RTO, each RTO wakeup must fire within the period, and each keepalive
    wakeup must fire after the period's packets and before the next
    heartbeat (checked for the queued ones, bounded for the rest).
    Packets 2 and 6 must land before 3 and 7, so observers see packets
    in delivery order.
    """
    hops = [route[2] * (1.0 + jitter) + _FIFO_GAP for route in routes]
    span = 2.0 * sum(hops) + AvsCloud.HEARTBEAT_REPLY_DELAY
    for conn in conns:
        tuning = conn.tuning
        lead = tuning.keepalive_idle - _PERIOD
        if not (span < tuning.rto and span + tuning.rto < _PERIOD
                and span + _FIFO_GAP < lead < _PERIOD - span - _FIFO_GAP):
            return False
    return hops[1] < routes[2][2] and all(t0 + span < entry[0] < t0 + _PERIOD
                                          for entry in stale)


def _observe_period(network, conns: list, routes: list, echo_tls, cloud_tls,
                    period: int, times: tuple) -> None:
    """Show the network's observers period ``period``'s eight packets
    as the event path builds, numbers and delivers them, each at its
    delivery time."""
    echo, down, up, cloud = conns
    step = _LEN * period
    se, re_ = echo.snd_next + step, echo.rcv_next + step
    sd, rd = down.snd_next + step, down.rcv_next + step + _LEN
    su, ru = up.snd_next + step, up.rcv_next + step
    sc, rc = cloud.snd_next + step, cloud.rcv_next + step + _LEN
    beat = echo_tls.records_sent + period
    reply = cloud_tls.records_sent + period
    t, a1, a2, a3, a4, s5, a5, a6, a7, a8 = times
    p1 = Packet(echo.local, echo.remote, _TCP, _LEN, _PSH_ACK, se, re_,
                _APPLICATION_DATA, beat, {"heartbeat": True})
    p2 = Packet(down.local, down.remote, _TCP, 0, _ACK_FLAG, sd, rd)
    p3 = Packet(up.local, up.remote, _TCP, _LEN, _PSH_ACK, su, ru,
                _APPLICATION_DATA, beat, {"heartbeat": True})
    p4 = Packet(cloud.local, cloud.remote, _TCP, 0, _ACK_FLAG, sc, rc)
    p5 = Packet(cloud.local, cloud.remote, _TCP, _LEN, _PSH_ACK, sc, rc,
                _APPLICATION_DATA, reply, {"heartbeat_ack": True})
    p6 = Packet(down.local, down.remote, _TCP, _LEN, _PSH_ACK, sd, rd,
                _APPLICATION_DATA, reply, {"heartbeat_ack": True})
    p7 = Packet(up.local, up.remote, _TCP, 0, _ACK_FLAG, su + _LEN, ru + _LEN)
    p8 = Packet(echo.local, echo.remote, _TCP, 0, _ACK_FLAG, se + _LEN, re_ + _LEN)
    sends = ((p1, t), (p3, a1), (p2, a1), (p4, a3), (p5, s5), (p6, a5), (p7, a5), (p8, a6))
    first = network._packet_count + _PACKETS * period + 1
    for number, (packet, send_time) in enumerate(sends, first):
        packet.number = number
        packet.send_time = send_time
    echo_route, down_route, up_route, cloud_route = routes
    deliveries = ((p1, a1, echo_route), (p2, a2, down_route), (p3, a3, up_route),
                  (p4, a4, cloud_route), (p5, a5, cloud_route), (p6, a6, down_route),
                  (p7, a7, up_route), (p8, a8, echo_route))
    clock = network.sim._clock
    for packet, arrival, route in deliveries:
        clock._now = arrival
        scope = "wan" if route[1] else "lan"
        for observer in network._observers:
            observer(packet, scope)
