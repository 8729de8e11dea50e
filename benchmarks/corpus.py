"""Deterministic synthetic captures for the benchmark, with ground truth.

A fixed home network holds devices whose header habits overlap: TTLs,
source-port ranges, windows, window-scale shifts, payload sizes and servers
are drawn from shared pools, so no single attribute separates the devices
and trees have to grow. The seed drives the traffic. Captures interleave
many TCP and UDP conversations (SYN/SYN-ACK handshakes, data, FIN; a share
join mid-stream and so have no SYN) with ICMP echoes, ARP and IPv6 frames,
802.1Q-tagged frames, traffic from unregistered hosts and a few frames whose
IPv4 header is cut short.

Besides the pcap bytes, the generator returns what it knows it wrote: for
every decodable IPv4 frame, in capture order, the true device name (None for
unregistered sources) and, for registered sources, the nine feature values
the documented extraction rules give. The benchmark checks the program's
outputs against these; the program itself sees only the files.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Iterator, Optional

SNAPLEN = 128
DEVICES = 16
STRANGERS = 3
ACTIVE_CONVERSATIONS = 24
GATEWAY_MAC = "02:00:00:00:00:fe"
GATEWAY_IP = "192.168.1.1"

TCP_FIN, TCP_SYN, TCP_PSH, TCP_ACK = 0x01, 0x02, 0x08, 0x10
ETH_IPV4, ETH_ARP, ETH_IPV6, ETH_VLAN = 0x0800, 0x0806, 0x86DD, 0x8100

KINDS = (
    ("camera", "iot"), ("plug", "iot"), ("bulb", "iot"), ("hub", "iot"),
    ("speaker", "iot"), ("thermostat", "iot"), ("sensor", "iot"), ("doorbell", "iot"),
    ("laptop", "non-iot"), ("phone", "non-iot"), ("tablet", "non-iot"),
)
TTL_POOL = (64, 64, 64, 128, 255)
PORT_BASES = (1024, 10000, 32768, 40000, 49152)
PORT_WIDTHS = (6000, 12000, 16000)
WINDOW_POOL = (4096, 5840, 8192, 14600, 16384, 29200, 64240, 65535)
SCALE_POOL = (None, None, 2, 6, 7, 8)
SYN_OPTION_LENGTHS = (4, 8, 12, 20)
PAYLOAD_POOL = (0, 16, 32, 48, 64, 100, 120, 200, 256, 300, 400, 512, 700, 1000, 1200, 1400)
TCP_SERVERS = tuple(
    (ip, port)
    for ip in ("52.1.1.10", "34.2.2.20", "18.3.3.30", "104.4.4.40")
    for port in (80, 443, 8883, 8080)
)
UDP_SERVERS = ((GATEWAY_IP, 53), ("129.6.15.28", 123), ("224.0.0.251", 5353), ("8.8.8.8", 53))

Features = tuple  # nine values (int or None) in canonical attribute order


@dataclass(frozen=True)
class Host:
    name: str
    kind: str  # "iot" | "non-iot"
    mac: str
    ip: str
    ttl: int
    weights: tuple[float, float, float]  # tcp, udp, icmp share of conversations
    tcp_ports: tuple[int, int]
    udp_ports: tuple[int, int]
    windows: tuple[int, ...]
    scale: Optional[int]
    syn_options: int
    payloads: tuple[int, ...]
    tcp_servers: tuple[tuple[str, int], ...]
    udp_servers: tuple[tuple[str, int], ...]
    vlan: bool
    activity: float


@dataclass(frozen=True)
class Network:
    devices: tuple[Host, ...]  # registered
    strangers: tuple[Host, ...]  # unregistered sources

    def registry_text(self) -> str:
        return "".join(f"{d.mac}\t{d.name}\t{d.kind}\n" for d in self.devices)


@dataclass(frozen=True)
class Capture:
    pcap: bytes
    # One entry per decodable IPv4 frame, in capture order:
    # (device name or None, features for registered sources else None).
    truth: tuple[tuple[Optional[str], Optional[Features]], ...]


def _rng(seed: int, role: str) -> random.Random:
    return random.Random(f"devfp-bench|{seed}|{role}")


def _host(rng: random.Random, name: str, kind: str, mac: str, ip: str) -> Host:
    def port_range() -> tuple[int, int]:
        base = rng.choice(PORT_BASES)
        return base, base + rng.choice(PORT_WIDTHS)

    tcp = rng.uniform(0.45, 0.85)
    icmp = rng.uniform(0.01, 0.05)
    return Host(
        name=name,
        kind=kind,
        mac=mac,
        ip=ip,
        ttl=rng.choice(TTL_POOL),
        weights=(tcp, 1.0 - tcp - icmp, icmp),
        tcp_ports=port_range(),
        udp_ports=port_range(),
        windows=tuple(rng.sample(WINDOW_POOL, 2)),
        scale=rng.choice(SCALE_POOL),
        syn_options=rng.choice(SYN_OPTION_LENGTHS),
        payloads=tuple(rng.sample(PAYLOAD_POOL, 3)),
        tcp_servers=tuple(rng.sample(TCP_SERVERS, 3)),
        udp_servers=tuple(rng.sample(UDP_SERVERS, 2)),
        vlan=rng.random() < 0.2,
        activity=rng.uniform(0.5, 2.0),
    )


def make_network() -> Network:
    """The registered devices and unregistered hosts.

    The population is the same for every seed, like a fixed lab network;
    seeds vary the traffic captured from it. Drawing habits per seed would
    make accuracy and tree sizes, and with them training time, differ from
    seed to seed by more than the benchmark's bounds.
    """
    rng = _rng(0, "network")
    registered = []
    for i in range(DEVICES):
        kind_name, kind = rng.choice(KINDS)
        registered.append(
            _host(rng, f"d{i:02d}-{kind_name}", kind, f"aa:00:00:00:00:{i + 1:02x}", f"192.168.1.{i + 10}")
        )
    others = [
        _host(rng, f"stranger{i}", "iot", f"02:00:00:00:01:{i + 1:02x}", f"192.168.1.{i + 200}")
        for i in range(STRANGERS)
    ]
    return Network(tuple(registered), tuple(others))


def _mac(text: str) -> bytes:
    return bytes(int(part, 16) for part in text.split(":"))


def _ip(text: str) -> bytes:
    return bytes(int(part) for part in text.split("."))


class _Writer:
    """Accumulates classic pcap frames (snaplen-truncated) and their truth."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.out = bytearray(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, SNAPLEN, 1))
        self.frames = 0
        self.usec = 1_600_000_000 * 1_000_000
        self.truth: list[tuple[Optional[str], Optional[Features]]] = []

    def raw(self, frame: bytes, original_len: int) -> None:
        self.usec += self.rng.randrange(20, 3000)
        captured = frame[:SNAPLEN]
        self.out += struct.pack("<IIII", self.usec // 1_000_000, self.usec % 1_000_000, len(captured), original_len)
        self.out += captured
        self.frames += 1

    def ipv4(
        self, src_mac: str, dst_mac: str, vlan: bool, src: str, dst: str, ttl: int,
        proto: int, l4: bytes, payload: int,
        label: Optional[str] = None, features: Optional[Features] = None,
    ) -> None:
        total = 20 + len(l4) + payload
        ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, total, self.frames & 0xFFFF, 0, ttl, proto, 0, _ip(src), _ip(dst))
        eth = _mac(dst_mac) + _mac(src_mac)
        eth += struct.pack(">HHH", ETH_VLAN, 7, ETH_IPV4) if vlan else struct.pack(">H", ETH_IPV4)
        head = eth + ip + l4
        room = max(0, SNAPLEN - len(head))
        self.raw(head + bytes(min(payload, room)), len(head) + payload)
        self.truth.append((label, features))


def _tcp_header(sport: int, dport: int, seq: int, ack: int, flags: int, window: int, options: int = 0, scale: Optional[int] = None) -> bytes:
    opts = bytearray()
    if scale is not None:
        opts += bytes((1, 3, 3, scale))  # NOP + window scale
    while len(opts) < options:
        opts.append(1)  # NOP padding stands in for MSS/SACK/timestamps
    while len(opts) % 4:
        opts.append(1)
    return struct.pack(">HHIIBBHHH", sport, dport, seq, ack, (5 + len(opts) // 4) << 4, flags, window, 0, 0) + bytes(opts)


class _Ordinals:
    """Stream ordinals per protocol, allocated when a conversation's first frame is written."""

    def __init__(self) -> None:
        self.next = {"tcp": 0, "udp": 0}

    def take(self, proto: str) -> int:
        value = self.next[proto]
        self.next[proto] += 1
        return value


def _tcp_conversation(w: _Writer, ordinals: _Ordinals, host: Host, label: Optional[str], sport: int) -> Iterator[None]:
    rng = w.rng
    server_ip, dport = rng.choice(host.tcp_servers)
    window = rng.choice(host.windows)
    mask = 0xFFFFFFFF
    mid_stream = rng.random() < 0.05
    isn_d, isn_s = rng.getrandbits(32), rng.getrandbits(32)
    seq_d, seq_s = (isn_d + 1) & mask, (isn_s + 1) & mask
    scale = None

    def device(flags: int, payload: int, options: int = 0, syn_scale: Optional[int] = None) -> None:
        syn = flags & TCP_SYN
        ack_raw = seq_s if flags & TCP_ACK else 0
        if not flags & TCP_ACK:
            rel = 0
        elif mid_stream:
            rel = ack_raw
        else:
            rel = (ack_raw - isn_s) & mask
        shown = window if syn or scale is None else window << scale
        l4 = _tcp_header(sport, dport, isn_d if syn else seq_d, ack_raw, flags, window, options, syn_scale)
        total = 20 + len(l4) + payload
        features = (sport, stream, rel, shown, None, None, total, host.ttl, 6) if label else None
        w.ipv4(host.mac, GATEWAY_MAC, host.vlan, host.ip, server_ip, host.ttl, 6, l4, payload, label, features)

    def server(flags: int, payload: int, syn_scale: Optional[int] = None) -> None:
        syn = flags & TCP_SYN
        l4 = _tcp_header(dport, sport, isn_s if syn else seq_s, seq_d, flags, 65535, 4 if syn else 0, syn_scale)
        w.ipv4(GATEWAY_MAC, host.mac, False, server_ip, host.ip, 52, 6, l4, payload)

    stream = ordinals.take("tcp")
    if mid_stream:
        seq_s = rng.getrandbits(32)
    else:
        device(TCP_SYN, 0, host.syn_options, host.scale)
        yield
        scale = host.scale
        server(TCP_SYN | TCP_ACK, 0, 7 if host.scale is not None else None)
        yield
    device(TCP_ACK, 0)
    yield
    for _ in range(rng.randrange(1, 6)):
        size = rng.choice(host.payloads)
        device(TCP_PSH | TCP_ACK, size)
        seq_d = (seq_d + size) & mask
        yield
        reply = rng.choice(PAYLOAD_POOL)
        server(TCP_PSH | TCP_ACK, reply)
        seq_s = (seq_s + reply) & mask
        yield
    device(TCP_FIN | TCP_ACK, 0)
    seq_d = (seq_d + 1) & mask
    yield
    server(TCP_FIN | TCP_ACK, 0)
    seq_s = (seq_s + 1) & mask
    yield
    device(TCP_ACK, 0)
    yield


def _udp_conversation(w: _Writer, ordinals: _Ordinals, host: Host, label: Optional[str], sport: int) -> Iterator[None]:
    rng = w.rng
    server_ip, dport = rng.choice(host.udp_servers)
    stream = ordinals.take("udp")
    for _ in range(rng.randrange(1, 4)):
        size = rng.choice(host.payloads)
        l4 = struct.pack(">HHHH", sport, dport, 8 + size, 0)
        features = (None, None, None, None, sport, stream, 28 + size, host.ttl, 17) if label else None
        w.ipv4(host.mac, GATEWAY_MAC, host.vlan, host.ip, server_ip, host.ttl, 17, l4, size, label, features)
        yield
        if server_ip.startswith("224."):
            continue  # multicast gets no unicast reply
        reply = rng.choice(PAYLOAD_POOL)
        l4 = struct.pack(">HHHH", dport, sport, 8 + reply, 0)
        w.ipv4(GATEWAY_MAC, host.mac, False, server_ip, host.ip, 52, 17, l4, reply)
        yield


def _icmp_echo(w: _Writer, host: Host, label: Optional[str]) -> Iterator[None]:
    l4 = struct.pack(">BBHHH", 8, 0, 0, w.frames & 0xFFFF, 1)
    features = (None, None, None, None, None, None, 84, host.ttl, 1) if label else None
    w.ipv4(host.mac, GATEWAY_MAC, host.vlan, host.ip, GATEWAY_IP, host.ttl, 1, l4, 56, label, features)
    yield
    w.ipv4(GATEWAY_MAC, host.mac, False, GATEWAY_IP, host.ip, 64, 1, b"\0" + l4[1:], 56)
    yield


def _noise(w: _Writer, host: Host) -> None:
    """A frame the extractor must skip or drop: ARP, IPv6 or a cut IPv4 header."""
    rng = w.rng
    pick = rng.random()
    eth = _mac("ff:ff:ff:ff:ff:ff") + _mac(host.mac)
    if pick < 0.45:
        body = struct.pack(">HHBBH", 1, ETH_IPV4, 6, 4, 1) + _mac(host.mac) + _ip(host.ip) + bytes(6) + _ip(GATEWAY_IP)
        frame = eth + struct.pack(">H", ETH_ARP) + body
    elif pick < 0.9:
        frame = eth + struct.pack(">H", ETH_IPV6) + bytes((0x60, 0, 0, 0)) + bytes(36)
    else:
        frame = eth + struct.pack(">H", ETH_IPV4) + bytes((0x45, 0, 0, 60)) + bytes(6)
    w.raw(frame, len(frame))


def build_capture(network: Network, seed: int, role: str, frames: int) -> Capture:
    """A capture of `frames` frames; each role gives the seed its own traffic."""
    w = _Writer(_rng(seed, role))
    rng = w.rng
    ordinals = _Ordinals()
    hosts = network.devices + network.strangers
    labels = {h.mac: h.name for h in network.devices}
    activity = [h.activity for h in hosts]
    used: set[tuple[str, str, int]] = set()

    def free_port(host: Host, proto: str) -> int:
        low, high = host.tcp_ports if proto == "tcp" else host.udp_ports
        while True:
            port = rng.randrange(low, high)
            if (proto, host.ip, port) not in used:
                used.add((proto, host.ip, port))
                return port

    def start() -> Iterator[None]:
        host = rng.choices(hosts, activity)[0]
        label = labels.get(host.mac)
        kind = rng.choices(("tcp", "udp", "icmp"), host.weights)[0]
        if kind == "tcp":
            return _tcp_conversation(w, ordinals, host, label, free_port(host, "tcp"))
        if kind == "udp":
            return _udp_conversation(w, ordinals, host, label, free_port(host, "udp"))
        return _icmp_echo(w, host, label)

    running = [start() for _ in range(ACTIVE_CONVERSATIONS)]
    while w.frames < frames:
        if rng.random() < 0.02:
            _noise(w, rng.choice(hosts))
            continue
        slot = rng.randrange(ACTIVE_CONVERSATIONS)
        if next(running[slot], StopIteration) is StopIteration:
            running[slot] = start()
    return Capture(bytes(w.out), tuple(w.truth))


def dataset_csv(captures: list[Capture]) -> str:
    """The canonical dataset CSV that `devfp extract --dedup` should write for these captures."""
    lines = ["tcp.srcport,tcp.stream,tcp.ack,tcp.window_size,udp.srcport,udp.stream,ip.len,ip.ttl,ip.proto,class"]
    seen: set[tuple] = set()
    for capture in captures:
        for label, features in capture.truth:
            if label is None:
                continue
            key = features + (label,)
            if key in seen:
                continue
            seen.add(key)
            lines.append(",".join("" if v is None else str(v) for v in features) + "," + label)
    return "\n".join(lines) + "\n"
