"""Per-resource cost histories and the signal each scheme emits from them.

A signal is an (M, 2) float array of per-resource (u_lo, u_hi) intervals;
scalar schemes emit degenerate intervals with u_lo = u_hi. A run's
``CostHistory`` is built once with its scheme and optional initial
signal, and ``emit_signal`` reads everything from it: it is the one
signal rule of both the network and the abstract model, which differ
only in warm-up (see its docstring).  ``edge_weight``, how a type reads
a signal, is the one choice rule the two models share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (
    ValidationError, require_finite_nonneg, require_instance, require_int,
    require_real)

_KINDS = ("now", "mean", "extreme", "full_extreme", "subinterval")


@dataclass(frozen=True)
class Scheme:
    kind: str
    window: int | None = None
    shrink: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown scheme kind {self.kind!r}")
        if self.kind in ("extreme", "subinterval"):
            object.__setattr__(self, "window", require_int(
                self.window, f"{self.kind} window", 1))
        elif self.window is not None:
            raise ValidationError(f"{self.kind} takes no window")
        if self.kind == "subinterval":
            shrink = require_real(self.shrink, "shrink factor")
            if not 0.0 <= shrink <= 1.0:
                raise ValidationError(
                    f"shrink factor must lie in [0, 1], got {shrink}")
            object.__setattr__(self, "shrink", shrink)
        elif self.shrink is not None:
            raise ValidationError(f"{self.kind} takes no shrink factor")

    def label(self) -> str:
        name = self.kind.replace("_", "-")
        if self.kind in ("extreme", "subinterval"):
            name += f"-r{self.window}"
        if self.kind == "subinterval":
            name += f"-a{self.shrink:g}"
        return name


def now_scheme() -> Scheme:
    return Scheme("now")


def mean_scheme() -> Scheme:
    return Scheme("mean")


def extreme_scheme(window: int) -> Scheme:
    return Scheme("extreme", window=window)


def full_extreme_scheme() -> Scheme:
    return Scheme("full_extreme")


def subinterval_scheme(window: int, shrink: float) -> Scheme:
    return Scheme("subinterval", window=window, shrink=shrink)


def scheme_from_name(name: str, window: int | None = None,
                     shrink: float | None = None) -> Scheme:
    """The scheme a CLI name stands for (``-`` for ``_``), built with the
    window and shrink given, so a kind that reads neither refuses them;
    ``subinterval`` without a shrink keeps the whole envelope."""
    kind = name.replace("-", "_")
    if kind == "subinterval" and shrink is None:
        shrink = 1.0
    return Scheme(kind, window=window, shrink=shrink)


def checked_initial_signal(signal, m_count: int) -> np.ndarray:
    """``signal`` as a fresh float array, checked to be ``m_count``
    intervals of finite, non-negative endpoints with lower <= upper."""
    signal = np.array(signal, dtype=float)
    if signal.shape != (m_count, 2):
        raise ValidationError(
            f"initial signal shape {signal.shape} != ({m_count}, 2)")
    if not np.all(signal[:, 0] <= signal[:, 1]):
        raise ValidationError(
            "initial signal must satisfy lower <= upper per resource")
    require_finite_nonneg(signal, "initial signal")
    return signal


class CostHistory:
    """What one run's signal rule reads: its scheme, its optional initial
    signal and, of every resource's recorded costs, what the scheme
    reads and nothing else, in one ``(rows, m_count)`` array whose
    columns are the resources.  ``now``, ``extreme`` and ``subinterval``
    keep a ring of the last ``window`` periods' costs, grown as periods
    are recorded, ``mean`` one row of running sums and ``full_extreme``
    a running-min row and a running-max row.  An initial signal under
    ``full_extreme`` seeds those two rows, so the envelope never takes
    it in again.  ``coalesced`` says when columns have become one.
    """

    def __init__(self, m_count: int, scheme: Scheme,
                 initial: np.ndarray | None = None):
        m_count = require_int(m_count, "resource count", 1)
        self.m_count = m_count
        self.scheme = require_instance(scheme, Scheme, "scheme")
        self.initial = (None if initial is None
                        else checked_initial_signal(initial, m_count))
        self.window = scheme.window or 1
        self._periods = 0
        if scheme.kind == "full_extreme":
            # the running-min row over the running-max row
            self._rows = (np.tile([[np.inf], [-np.inf]], m_count)
                          if self.initial is None else self.initial.T.copy())
            # The envelope keeps an endpoint that ties the costs, but a
            # recorded cost replaces an equal running min or max.  Equal
            # numbers differ in their bits only as 0.0 and -0.0, so
            # ``emit_signal`` puts back the zero endpoints that a zero
            # cost tied: per row, the resources whose seed is a zero.
            self._zeros = [np.flatnonzero(row == 0.0) for row in self._rows]
        else:
            self._rows = np.zeros((1, m_count))

    def coalesced(self, kept, dropped) -> CostHistory | None:
        """This history over the ``kept`` columns alone if the
        ``dropped`` ones, paired with them in order, will emit equal
        signals (under ``==``) from now on, given equal costs; else None.
        They will if each pair's state columns are equal and ``window``
        periods are recorded: the state is then all that ``emit_signal``
        reads, but for the sign of an initial signal's zero."""
        rows = self._rows
        if (self._periods < self.window
                or not np.array_equal(rows[:, kept], rows[:, dropped])):
            return None
        part = CostHistory(len(kept), self.scheme,
                           None if self.initial is None
                           else self.initial[kept])
        part._periods, part._rows = self._periods, rows[:, kept]
        return part

    @property
    def periods(self) -> int:
        """Periods recorded so far."""
        return self._periods

    def record_period(self, costs) -> None:
        """Record one period's cost for every resource at once."""
        costs = np.asarray(costs, dtype=float)
        if costs.shape != (self.m_count,):
            raise ValidationError(
                f"expected {self.m_count} costs, got shape {costs.shape}")
        require_finite_nonneg(costs, "cost")
        kind, rows = self.scheme.kind, self._rows
        if kind == "mean":
            rows += costs                     # its one row of sums
        elif kind == "full_extreme":
            lo, hi = rows[0], rows[1]
            np.minimum(lo, costs, out=lo)
            np.maximum(hi, costs, out=hi)
        else:
            at = self._periods % self.window
            if at == len(rows):     # double the ring, up to window rows
                rows = self._rows = np.resize(
                    rows, (min(2 * at, self.window), self.m_count))
            rows[at] = costs
        self._periods += 1

    def window_extremes(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-resource min and max over the min(window, recorded) most
        recent periods; there must be at least one, and the scheme must
        be ``extreme`` or ``subinterval``, the two that read them."""
        if self.scheme.kind not in ("extreme", "subinterval"):
            raise ValidationError(
                f"a {self.scheme.kind} history keeps no window extremes")
        if self._periods == 0:
            raise ValidationError("no period recorded yet")
        rows = self._rows[:min(self._periods, self.window)]
        return rows.min(axis=0), rows.max(axis=0)


def emit_signal(history: CostHistory) -> np.ndarray:
    """Signal for the coming period from what the history holds so far.

    Without an initial signal the warm-up signal is zero: scalar schemes
    wait for one recorded period, interval schemes for two.  With one,
    it is the signal before any cost is recorded and stays in the
    envelope as a pseudo-observation: under ``extreme`` and
    ``subinterval`` until ``window`` costs are recorded, under
    ``full_extreme`` for good.  ``now`` and ``mean`` read recorded
    costs only.
    """
    scheme, initial, periods = history.scheme, history.initial, history.periods
    if initial is not None and periods == 0:
        return initial.copy()
    scalar = scheme.kind in ("now", "mean")
    if initial is None and periods < (1 if scalar else 2):
        return np.zeros((history.m_count, 2))
    rows = history._rows
    if scheme.kind == "now":
        lo = hi = rows[0]                     # a window of one period
    elif scheme.kind == "mean":
        lo = hi = rows[0] / periods
    elif scheme.kind == "full_extreme":
        lo, hi = rows[0], rows[1]
    else:
        lo, hi = history.window_extremes()
        if initial is not None and periods < scheme.window:
            lo = np.minimum(lo, initial[:, 0])
            hi = np.maximum(hi, initial[:, 1])
    signal = np.empty((history.m_count, 2))
    signal[:, 0], signal[:, 1] = lo, hi
    if scheme.kind == "full_extreme":
        for column, zeros in enumerate(history._zeros):
            if zeros.size:
                tied = zeros[signal[zeros, column] == 0.0]
                signal[tied, column] = initial[tied, column]
    if scheme.kind == "subinterval" and scheme.shrink != 1.0:
        mid = signal.mean(axis=1)
        half = scheme.shrink * (signal[:, 1] - signal[:, 0]) / 2.0
        signal[:, 0] = mid - half
        signal[:, 1] = mid + half
    return signal


def edge_weight(signal: np.ndarray, omega: float) -> np.ndarray:
    """Collapse a ``(..., n, 2)`` interval signal to ``(..., n)`` scalar
    weights.

    ``omega = 1`` trusts the lower endpoints, ``omega = 0`` the upper
    ones, and values in between interpolate linearly.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim < 2 or signal.shape[-1] != 2:
        raise ValidationError(
            f"signal must have shape (..., n, 2), got {signal.shape}")
    return omega * signal[..., 0] + (1.0 - omega) * signal[..., 1]
