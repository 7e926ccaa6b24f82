"""Built-in problem instances.

The diamond network is small enough to generate inline: two congestible
middle links between wide feeder links, with thirty agents crossing it.
The Sioux Falls instance ships as package data in TNTP format.  Each
instance is parsed once per process, into a network and a demand table
that cannot change, so every caller can share them.
"""

from __future__ import annotations

import functools
import importlib.resources

from .network import (
    DemandTable,
    Network,
    ValidationError,
    parse_network,
    parse_trips,
)

__all__ = [
    "diamond_net_text",
    "diamond_trips_text",
    "load_instance",
    "sioux_falls_net_text",
    "sioux_falls_trips_text",
]

_DIAMOND_NET = """\
<NUMBER OF ZONES> 5
<NUMBER OF NODES> 5
<FIRST THRU NODE> 1
<NUMBER OF LINKS> 5
<END OF METADATA>

~ Init node Term node Capacity Length Free Flow Time B Power Speed limit Toll Type ;
1 2 25900 6 6 0.15 4 0 0 1 ;
2 3 15 0 2 1 2 0 0 1 ;
2 4 15 0 2 10 6 0 0 1 ;
3 5 99900 6 1 0.15 1 0 0 1 ;
4 5 99900 6 1 0.15 1 0 0 1 ;
"""

_DIAMOND_TRIPS = """\
<NUMBER OF ZONES> 5
<TOTAL OD FLOW> 30
<END OF METADATA>

Origin 1
5 : 30.0;
"""


def diamond_net_text() -> str:
    return _DIAMOND_NET


def diamond_trips_text() -> str:
    return _DIAMOND_TRIPS


def _read_data(name: str) -> str:
    return (importlib.resources.files("intervalsig.data") / name).read_text()


def sioux_falls_net_text() -> str:
    return _read_data("siouxfalls_net.tntp")


def sioux_falls_trips_text() -> str:
    return _read_data("siouxfalls_trips.tntp")


_INSTANCES = {
    "diamond": (diamond_net_text, diamond_trips_text),
    "sioux-falls": (sioux_falls_net_text, sioux_falls_trips_text),
}


@functools.cache
def load_instance(name: str) -> tuple[Network, DemandTable]:
    """The named built-in instance's network and demand table, parsed on
    the first call; every later call returns the same read-only
    objects."""
    if name not in _INSTANCES:
        raise ValidationError(
            f"unknown instance {name!r}; available: {sorted(_INSTANCES)}")
    net_fn, trips_fn = _INSTANCES[name]
    return parse_network(net_fn()), parse_trips(trips_fn())
