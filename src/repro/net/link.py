"""Hosts, the home LAN, and inline tap interposition.

The topology mirrors the paper's deployment (Figure 2): smart-home
devices and the VoiceGuard laptop share a LAN behind a WiFi router;
cloud servers live across a WAN.  The guard laptop is installed as an
*inline tap* on the smart speaker's IP: every packet to or from the
speaker is delivered to the tap instead of its nominal destination, and
the tap decides what to do with it (bridge it, terminate TCP, hold it).
Packets the tap itself originates are routed directly, which is what
lets it impersonate either side transparently.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Callable, Dict, List, Optional

from repro.errors import NetworkError
from repro.net.addresses import IPv4Address
from repro.net.packet import Packet, Protocol
from repro.sim.random import RngHub
from repro.sim.simulator import Simulator

PacketObserver = Callable[[Packet, str], None]

_TCP = Protocol.TCP
# Per-hop base latency (seconds) inside the home and across the WAN.
LAN_LATENCY = 0.0004
WAN_LATENCY = 0.018
# Jitter draws are taken from the stream this many at a time.
_JITTER_BLOCK = 256


class Host:
    """A network endpoint with one IPv4 address.

    Subclasses (speakers, cloud servers, the guard) attach protocol
    stacks via :meth:`register_tcp_stack` / :meth:`register_udp_handler`.
    """

    def __init__(self, name: str, ip: IPv4Address) -> None:
        self.name = name
        self.ip = ip
        self.aliases: set = set()
        self.network: Optional[Network] = None
        self._tcp_stack = None  # set by TcpStack.__init__
        self._udp_handlers: Dict[int, Callable[[Packet], None]] = {}

    # -- wiring ---------------------------------------------------------
    def attached(self, network: "Network") -> None:
        """Called by :meth:`Network.attach`."""
        self.network = network

    def register_tcp_stack(self, stack) -> None:
        """Attach the host's (single) TCP stack."""
        if self._tcp_stack is not None:
            raise NetworkError(f"host {self.name} already has a TCP stack")
        self._tcp_stack = stack

    @property
    def tcp(self):
        """The host's TCP stack (raises if none installed)."""
        if self._tcp_stack is None:
            raise NetworkError(f"host {self.name} has no TCP stack")
        return self._tcp_stack

    def register_udp_handler(self, port: int, handler: Callable[[Packet], None]) -> None:
        """Register a per-port UDP handler."""
        self._udp_handlers[port] = handler

    def unregister_udp_handler(self, port: int) -> None:
        """Free ``port``: its datagrams are dropped from now on."""
        del self._udp_handlers[port]

    # -- traffic --------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Inject a packet into the network with this host as origin."""
        if self.network is None:
            raise NetworkError(f"host {self.name} is not attached to a network")
        self.network.send(self, packet)

    def receive(self, packet: Packet) -> None:
        """Deliver a packet to this host's protocol stacks."""
        if packet.protocol is _TCP:
            if self._tcp_stack is not None:
                self._tcp_stack.receive(packet)
            return
        handler = self._udp_handlers.get(packet.dst.port)
        if handler is not None:
            handler(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name!r}, {self.ip})"


class TapHost(Host):
    """A host that can receive packets addressed to *other* IPs.

    The VoiceGuard laptop subclasses this; :meth:`intercept` is called
    for every tapped packet.
    """

    def intercept(self, packet: Packet) -> None:
        """Handle a packet diverted to this tap.  Default: bridge it."""
        self.bridge(packet)

    def bridge(self, packet: Packet) -> None:
        """Pass a tapped packet through unchanged to its true target."""
        if self.network is None:
            raise NetworkError(f"tap {self.name} is not attached to a network")
        self.network.send(self, packet)


class Network:
    """The simulated LAN + WAN fabric.

    Latency model: a constant per-hop latency (:data:`LAN_LATENCY` or
    :data:`WAN_LATENCY`) plus a small uniform jitter.  Packets between
    two private addresses stay on the LAN; anything crossing to a public
    address pays the WAN latency.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: RngHub,
        jitter: float = 0.15,
        wan_loss: float = 0.0,
    ) -> None:
        self.sim = sim
        self._rng = rng.stream("net.jitter")
        self._loss_rng = rng.stream("net.loss")
        self.jitter = jitter
        self.wan_loss = wan_loss  # per-packet drop probability on the WAN
        self.packets_lost = 0
        # Packets are numbered on first send, per world (see Packet).
        self._packet_count = 0
        self._hosts: Dict[IPv4Address, Host] = {}
        self._taps: Dict[IPv4Address, TapHost] = {}
        self._observers: List[PacketObserver] = []
        self._last_delivery: Dict[tuple, float] = {}
        # (origin_ip, src, dst, protocol) -> route.  Routing only
        # changes when the topology or the observers do, so everything
        # derivable from the key is computed once instead of per
        # packet.  Endpoints carry precomputed hashes, keeping the
        # lookup cheap; FIFO floors are tracked under small interned
        # ints so the hot path never hashes a (src_ip, dst_ip,
        # protocol) triple.
        self._path_cache: Dict[tuple, tuple] = {}
        # Bumped on every topology change and every add_observer; a
        # route returned by send() stays valid while this is unchanged.
        self.topology_version = 0
        self._fifo_ids: Dict[tuple, int] = {}
        # Jitter draws come from the stream in blocks: ``random(n)``
        # yields the exact doubles ``n`` scalar draws would (pinned by a
        # unit test), so buffering is invisible to golden traces.
        self._jitter_buf: list = []
        self._jitter_idx = 0
        # _last_delivery floors are useless once simulated time passes
        # them; prune opportunistically so the dict does not keep one
        # entry per (src, dst, protocol) path for a fleet-length run.
        self._prune_at = 64

    # -- topology -------------------------------------------------------
    def attach(self, host: Host) -> Host:
        """Add a host to the fabric."""
        if host.ip in self._hosts:
            raise NetworkError(f"duplicate host IP {host.ip}")
        self._hosts[host.ip] = host
        host.attached(self)
        self._topology_changed()
        return host

    def add_alias(self, host: Host, ip: IPv4Address) -> None:
        """Register an extra IP for ``host`` (cloud clusters expose many
        addresses behind one domain name)."""
        if ip in self._hosts:
            raise NetworkError(f"alias {ip} collides with an existing host")
        if host.ip not in self._hosts:
            raise NetworkError("attach the host before adding aliases")
        self._hosts[ip] = host
        host.aliases.add(ip)
        self._topology_changed()

    def host_for(self, ip: IPv4Address) -> Host:
        """The host owning ``ip``."""
        try:
            return self._hosts[ip]
        except KeyError:
            raise NetworkError(f"no host with IP {ip}") from None

    def install_tap(self, covered_ip: IPv4Address, tap: TapHost) -> None:
        """Divert all of ``covered_ip``'s traffic through ``tap``.

        This models plugging the VoiceGuard laptop in between the smart
        speaker and the WiFi router.
        """
        if covered_ip not in self._hosts:
            raise NetworkError(f"cannot tap unknown IP {covered_ip}")
        if tap.ip not in self._hosts:
            raise NetworkError("tap host must be attached to the network first")
        self._taps[covered_ip] = tap
        self._topology_changed()

    def remove_tap(self, covered_ip: IPv4Address) -> None:
        """Stop diverting an IP's traffic."""
        self._taps.pop(covered_ip, None)
        self._topology_changed()

    def _topology_changed(self) -> None:
        self._path_cache.clear()
        self.topology_version += 1

    def add_observer(self, observer: PacketObserver) -> None:
        """Observe every packet sent from now on, as it is delivered:
        ``observer(packet, "lan"|"wan")``.

        Observers are part of a route, so this re-resolves every route;
        a packet already in flight keeps the receiver it was sent to.
        """
        self._observers.append(observer)
        self._topology_changed()

    # -- delivery -------------------------------------------------------
    def send(self, origin: Host, packet: Packet, route: Optional[tuple] = None) -> tuple:
        """Route ``packet`` from ``origin``, honoring tap diversion.

        A packet whose source or destination IP is covered by a tap is
        delivered to the tap *unless the tap itself is the origin* —
        packets a tap re-injects go straight to their true destination.
        A packet's first send stamps its ``number``; a lost packet still
        uses its number up.

        Returns the route the packet took.  A sender whose packets all
        share one origin, source, destination and protocol (a TCP
        connection) may pass it back as ``route`` while
        :attr:`topology_version` is unchanged, skipping the path lookup.
        """
        sim = self.sim
        now = sim._clock._now
        packet.send_time = now
        if packet.number is None:
            self._packet_count += 1
            packet.number = self._packet_count
        if route is None:
            key = (origin.ip, packet.src, packet.dst, packet.protocol)
            path_cache = self._path_cache
            route = path_cache.get(key)
            if route is None:
                if len(path_cache) >= 4096:
                    # Ephemeral ports make the key space unbounded on a
                    # fleet-length run; recomputing after a wholesale
                    # wipe is cheaper than tracking per-entry staleness.
                    path_cache.clear()
                route = path_cache[key] = self._path_for(origin, packet)
        receive, crosses_wan, base, fifo_id = route
        if crosses_wan and self.wan_loss > 0.0 and self._loss_rng.random() < self.wan_loss:
            # Lost in transit; TCP's retransmission handles recovery.
            self.packets_lost += 1
            return route
        jitter_idx = self._jitter_idx
        if jitter_idx >= len(self._jitter_buf):
            self._jitter_buf = self._rng.random(_JITTER_BLOCK).tolist()
            jitter_idx = 0
        self._jitter_idx = jitter_idx + 1
        latency = base * (1.0 + self.jitter * self._jitter_buf[jitter_idx])
        # Per-path FIFO: jitter never reorders packets of one flow pair,
        # matching TCP's in-order delivery (and single-path reality).
        last_delivery = self._last_delivery
        arrival = now + latency
        floor = last_delivery.get(fifo_id, 0.0) + 1e-6
        if arrival < floor:
            arrival = floor
        last_delivery[fifo_id] = arrival
        if len(last_delivery) >= self._prune_at:
            self._prune_delivery_floors(now)
        # Arrival is never before `now`, so the delivery goes on the heap
        # directly as a handle-free entry (see repro.sim.events) that
        # calls the route's receiver, with no Simulator.post_at
        # validation, EventQueue.post or delivery frame in between.
        queue = sim._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heappush(queue._heap, (arrival, seq, None, receive, (packet,)))
        queue._live += 1
        return route

    def _take_jitter(self, count: int) -> list:
        """The next ``count`` jitter draws, as ``count`` sends would take
        them: the buffer's rest, then refills block by block, the last
        block left as the buffer.  For a caller that sends packets in
        closed form (see repro.speakers.idle)."""
        draws = self._jitter_buf[self._jitter_idx:]
        while len(draws) < count:
            self._jitter_buf = self._rng.random(_JITTER_BLOCK).tolist()
            draws += self._jitter_buf
        self._jitter_idx = len(self._jitter_buf) - (len(draws) - count)
        return draws

    def _path_for(self, origin: Host, packet: Packet) -> tuple:
        """Resolve everything about a route that only depends on the
        (origin, src, dst, protocol) key and the observers: the
        receiving callable, whether the WAN loss model applies, the base
        hop latency, and the interned FIFO floor id.

        A tap's ``intercept`` receives every packet it diverts.  A host
        otherwise gets its ``receive``, except that TCP segments go
        straight to the host's stack when ``receive`` is the stock
        :meth:`Host.receive`, which would only forward them there.  On
        an observed network the receiver is wrapped once, here, in
        :meth:`_deliver` with the route's scope label.
        """
        target = self._route(origin, packet)
        if isinstance(target, TapHost) and packet.dst.ip != target.ip:
            receive = target.intercept
        else:
            receive = target.receive
            stack = target._tcp_stack
            if (packet.protocol is _TCP and stack is not None
                    and getattr(receive, "__func__", None) is Host.receive):
                receive = stack.receive
        local = packet.src.ip.is_private and packet.dst.ip.is_private
        base = (
            LAN_LATENCY
            if (origin.ip.is_private and target.ip.is_private)
            else WAN_LATENCY
        )
        fifo_triple = (packet.src.ip, packet.dst.ip, packet.protocol)
        fifo_id = self._fifo_ids.setdefault(fifo_triple, len(self._fifo_ids))
        if self._observers:
            receive = partial(self._deliver, receive, "lan" if local else "wan")
        return (receive, not local, base, fifo_id)

    def _prune_delivery_floors(self, now: float) -> None:
        """Drop FIFO floors that simulated time has already passed.

        A floor at ``last <= now - 1e-6`` cannot raise any future
        arrival (every new arrival is at least ``now``), so the entry is
        dead weight.  The threshold doubles with the surviving size, so
        pruning stays O(1) amortized per send.
        """
        stale = now - 1e-6
        last_delivery = self._last_delivery
        for key in [k for k, t in last_delivery.items() if t <= stale]:
            del last_delivery[key]
        self._prune_at = max(64, 2 * len(last_delivery))

    def _route(self, origin: Host, packet: Packet) -> Host:
        for covered_ip in (packet.src.ip, packet.dst.ip):
            tap = self._taps.get(covered_ip)
            if tap is not None and origin is not tap:
                return tap
        return self.host_for(packet.dst.ip)

    def _deliver(self, receive: Callable[[Packet], None], scope: str, packet: Packet) -> None:
        """An observed route's receiver: the observers, then ``receive``."""
        for observer in self._observers:
            observer(packet, scope)
        receive(packet)
