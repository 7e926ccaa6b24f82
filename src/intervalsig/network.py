"""Road-network and demand data model, TNTP text ingestion, and the
shortest paths that demand is split over.

``dijkstra`` gives the per-row reference loader in ``assignment`` the
distances, each node's finalization rank and the nodes in finalization
order, as the plain lists it builds them in; the loader walks the nodes
in that order and selects tight edges by the distances and ranks.  It
serves rows with a distance plateau and plans too small to batch, and
``scripts/sioux_falls_reference.py`` calls ``dijkstra`` too.  The
batched loader finds its distances without it.

Node ids are 1-based as in TNTP files. Edges keep their file order; that
order indexes every per-edge array in the rest of the package.
"""

from __future__ import annotations

import heapq
import math
import numbers
import operator
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np


class ParseError(ValueError):
    """Malformed instance text (reports the offending line)."""


class ValidationError(ValueError):
    """Structurally valid text with out-of-domain values."""


class NoPathError(ValueError):
    """Requested origin cannot reach the requested destination."""


@dataclass(frozen=True)
class Edge:
    id: int
    src: int
    dst: int
    capacity: float
    length: float
    free_flow: float
    b_coeff: float
    power: float
    speed: float = 0.0
    toll: float = 0.0
    link_type: float = 1.0


@dataclass(frozen=True)
class Network:
    """A road network, read-only once built: ``edges`` is a tuple,
    ``metadata`` a read-only mapping, and the derived arrays are the
    network's own read-only copies, so every plan and run built on it
    can share it."""

    node_count: int
    edges: tuple[Edge, ...]
    metadata: Mapping[str, str] = field(default_factory=dict, compare=False)
    # derived adjacency, built once; excluded from equality
    _out: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False)
    srcs: np.ndarray = field(init=False, repr=False, compare=False)
    dsts: np.ndarray = field(init=False, repr=False, compare=False)
    # per-edge BPR parameters as arrays, for the vectorized edge costs
    capacities: np.ndarray = field(init=False, repr=False, compare=False)
    free_flows: np.ndarray = field(init=False, repr=False, compare=False)
    b_coeffs: np.ndarray = field(init=False, repr=False, compare=False)
    powers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        edges = tuple(self.edges)
        out = [[] for _ in range(self.node_count + 1)]
        for e in edges:
            out[e.src].append((e.dst, e.id))
        derived = {
            "edges": edges,
            "metadata": MappingProxyType(dict(self.metadata)),
            "_out": tuple(map(tuple, out)),
            "srcs": _column(edges, "src", np.int64),
            "dsts": _column(edges, "dst", np.int64),
            "capacities": _column(edges, "capacity"),
            "free_flows": _column(edges, "free_flow"),
            "b_coeffs": _column(edges, "b_coeff"),
            "powers": _column(edges, "power"),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return type(self), (self.node_count, self.edges, dict(self.metadata))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class DemandTable:
    """Origin-destination demand, read-only once built: ``entries`` and
    ``metadata`` are read-only mappings over the table's own copies."""

    entries: Mapping[tuple[int, int], float]
    total: float = field(init=False)
    metadata: Mapping[str, str] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        entries = dict(self.entries)
        for pair, flow in entries.items():
            # a plain float skips the type check, about 1 us an entry
            if type(flow) is not float:
                flow = require_real(flow, f"demand {pair}")
            # NaN fails the comparison
            if not 0.0 <= flow < math.inf:
                raise ValidationError(
                    f"demand {pair} must be finite and >= 0, got {flow}")
        object.__setattr__(self, "entries", MappingProxyType(entries))
        object.__setattr__(self, "metadata",
                           MappingProxyType(dict(self.metadata)))
        object.__setattr__(self, "total", float(sum(entries.values())))

    def __reduce__(self):
        return type(self), (dict(self.entries), dict(self.metadata))


def _column(edges: tuple[Edge, ...], name: str, dtype=float) -> np.ndarray:
    """Every edge's ``name``, in file order, as a read-only array."""
    return read_only(np.array([getattr(e, name) for e in edges], dtype=dtype))


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only."""
    array.flags.writeable = False
    return array


def require_int(value, what: str, minimum: int) -> int:
    """``value`` as an int of at least ``minimum``.  A numpy integer will
    do; a bool, or a float, even a whole one, is a ``ValidationError``
    (``what must be an integer``), never truncated, and so is a smaller
    value."""
    try:
        if isinstance(value, bool):     # an int to Python, never a count
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValidationError(
            f"{what} must be an integer, got {value!r}") from None
    if number < minimum:
        raise ValidationError(f"{what} must be >= {minimum}, got {number}")
    return number


def require_real(value, what: str) -> float:
    """``value`` as a float.  A numpy number will do; a bool, a string,
    None or any other object is a ``ValidationError`` (``what must be a
    real number``), never parsed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    return float(value)


def require_instance(value, kind: type, what: str):
    """``value``, checked to be a ``kind`` (``what must be a kind, got
    ...``).  The message shows a refused value's ``repr`` when that is
    short, else only its type, so a refused result is not printed whole."""
    if not isinstance(value, kind):
        got = repr(value)
        if len(got) > 60:
            got = f"type {type(value).__name__}"
        raise ValidationError(f"{what} must be a {kind.__name__}, got {got}")
    return value


def require_finite_nonneg(values: np.ndarray, what: str) -> None:
    """Raise ``ValidationError`` (``what must be finite and >= 0``) on
    the first NaN, infinite or negative entry of ``values``."""
    # NaN fails the first comparison, infinities one of the two.
    if not (np.minimum.reduce(values, axis=None) >= 0.0
            and np.maximum.reduce(values, axis=None) < np.inf):
        bad = values[~(np.isfinite(values) & (values >= 0.0))][0]
        raise ValidationError(f"{what} must be finite and >= 0, got {bad}")


def _number(token: str, no: int, what: str, integral: bool = False):
    """``token`` as a finite float, or as an int when ``integral``.

    Every number of a TNTP text is read here: text that is no number is
    a ``ParseError``, a non-finite or (when ``integral``) fractional
    number a ``ValidationError``, each naming line ``no`` and ``what``.
    """
    token = token.strip()
    try:
        value = float(token)
    except ValueError:
        raise ParseError(
            f"line {no}: {what} {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"line {no}: {what} must be finite, got {token}")
    if not integral:
        return value
    if not value.is_integer():
        raise ValidationError(
            f"line {no}: {what} must be an integer, got {token}")
    return int(value)


def _split_metadata(text: str):
    """Return (metadata dict, the line number of each metadata key, list
    of (line_no, line) for the body)."""
    meta: dict[str, str] = {}
    meta_lines: dict[str, int] = {}
    body: list[tuple[int, str]] = []
    lines = text.splitlines()
    in_meta = False
    meta_closed = False
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("~"):
            continue
        if line.startswith("<"):
            close = line.find(">")
            if close < 0:
                raise ParseError(f"line {no}: unterminated metadata tag")
            key = line[1:close].strip()
            value = line[close + 1:].strip()
            if key.upper() == "END OF METADATA":
                meta_closed = True
                continue
            if meta_closed:
                raise ParseError(f"line {no}: metadata after <END OF METADATA>")
            in_meta = True
            meta[key.upper()] = value
            meta_lines[key.upper()] = no
            continue
        if in_meta and not meta_closed:
            raise ParseError(
                f"line {no}: data row before <END OF METADATA>")
        body.append((no, line))
    return meta, meta_lines, body


def parse_network(text: str) -> Network:
    """Parse TNTP net format: metadata, optional ``~`` header, then one
    edge row per line with at least 10 whitespace-separated fields
    (from, to, capacity, length, free-flow time, B, power, speed, toll,
    type) terminated by ``;``."""
    meta, meta_lines, body = _split_metadata(text)
    edges: list[Edge] = []
    max_node = 0
    for no, line in body:
        tokens = line.split()
        if tokens[-1] == ";":
            tokens = tokens[:-1]
        elif tokens[-1].endswith(";"):
            tokens[-1] = tokens[-1][:-1]
        else:
            raise ParseError(f"line {no}: edge row not terminated by ';'")
        if len(tokens) < 10:
            raise ParseError(
                f"line {no}: expected >= 10 fields, got {len(tokens)}")
        src = _number(tokens[0], no, "init node", integral=True)
        dst = _number(tokens[1], no, "term node", integral=True)
        cap, length, fft, b, p, speed, toll, ltype = (
            _number(tok, no, name) for tok, name in zip(tokens[2:10], (
                "capacity", "length", "free-flow time", "B", "power",
                "speed limit", "toll", "type")))
        if src < 1 or dst < 1:
            raise ValidationError(f"line {no}: node ids must be >= 1")
        if src == dst:
            raise ValidationError(f"line {no}: self-loop {src}->{dst}")
        if cap <= 0:
            raise ValidationError(f"line {no}: capacity {cap} must be > 0")
        if fft < 0 or b < 0 or p < 0:
            raise ValidationError(
                f"line {no}: free-flow time, B and power must be >= 0")
        edges.append(Edge(len(edges), src, dst, cap, length, fft, b, p,
                          speed, toll, ltype))
        max_node = max(max_node, src, dst)
    meta_nodes = 0
    if "NUMBER OF NODES" in meta:
        meta_nodes = _number(meta["NUMBER OF NODES"],
                             meta_lines["NUMBER OF NODES"],
                             "<NUMBER OF NODES>", integral=True)
    return Network(max(max_node, meta_nodes), edges, meta)


def parse_trips(text: str) -> DemandTable:
    """Parse TNTP trips format: metadata, then ``Origin <o>`` blocks of
    ``dest : flow;`` entries. Zero-flow entries are dropped; a total
    differing from the ``<TOTAL OD FLOW>`` metadata only warns."""
    meta, meta_lines, body = _split_metadata(text)
    entries: dict[tuple[int, int], float] = {}
    origin: int | None = None
    for no, line in body:
        if line.lower().startswith("origin"):
            parts = line.split()
            if len(parts) < 2:
                raise ParseError(f"line {no}: Origin without node id")
            origin = _number(parts[1], no, "Origin id", integral=True)
            continue
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if origin is None:
                raise ParseError(f"line {no}: demand entry before any Origin")
            if ":" not in chunk:
                raise ParseError(f"line {no}: expected 'dest : flow'")
            dest_s, flow_s = chunk.split(":", 1)
            dest = _number(dest_s, no, "destination", integral=True)
            flow = _number(flow_s, no, "demand")
            if flow < 0:
                raise ValidationError(f"line {no}: negative demand {flow}")
            if flow == 0:
                continue
            if dest == origin:
                raise ValidationError(
                    f"line {no}: nonzero self-demand at node {origin}")
            entries[(origin, dest)] = entries.get((origin, dest), 0.0) + flow
    table = DemandTable(entries, meta)
    if "TOTAL OD FLOW" in meta:
        stated_val = _number(meta["TOTAL OD FLOW"],
                             meta_lines["TOTAL OD FLOW"], "<TOTAL OD FLOW>")
        if abs(table.total - stated_val) > 1e-6 * max(1.0, abs(stated_val)):
            warnings.warn(
                f"trips total {table.total} differs from metadata "
                f"{stated_val}; using the actual sum", stacklevel=2)
    return table


def dijkstra(net: Network, weights: np.ndarray,
             source: int) -> tuple[list[float], list[int], list[int]]:
    """Single-source shortest distances over nonnegative edge weights.

    Returns the lists ``(dist, order, finalized)``: ``dist`` and
    ``order`` are indexed by node id (unreached nodes keep dist=inf and
    order=-1), and ``finalized`` lists the reached nodes in finalization
    order, so ``order[finalized[i]] == i``. The heap is keyed by (dist,
    node id), so the finalization order is deterministic and breaks
    distance plateaus by node id as seen from the source.
    """
    adj = net._out
    w = np.asarray(weights, dtype=float).tolist()
    dist = [math.inf] * (net.node_count + 1)
    order = [-1] * (net.node_count + 1)
    finalized = []
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if order[u] >= 0:
            continue
        order[u] = len(finalized)
        finalized.append(u)
        for v, eid in adj[u]:
            nd = d + w[eid]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist, order, finalized
