"""Per-resource cost histories and the signal each scheme emits from them.

A signal is an (M, 2) float array of per-resource (u_lo, u_hi) intervals;
scalar schemes emit degenerate intervals with u_lo = u_hi. ``emit_signal``
is the one signal rule of both the network and the abstract model; the
two differ only in warm-up (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import ValidationError

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
            if self.window is None or self.window < 1:
                raise ValidationError(
                    f"{self.kind} needs a window of at least 1")
        if self.kind == "subinterval":
            if self.shrink is None or not 0.0 <= self.shrink <= 1.0:
                raise ValidationError("shrink factor must lie in [0, 1]")

    def history_window(self) -> int:
        """How many recent costs the history must retain for this scheme."""
        if self.kind in ("extreme", "subinterval"):
            return self.window
        return 1

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
    kind = name.replace("-", "_")
    if kind == "subinterval":
        return Scheme(kind, window=window,
                      shrink=1.0 if shrink is None else shrink)
    if kind == "extreme":
        return Scheme(kind, window=window)
    return Scheme(kind)


class CostHistory:
    """The last ``window`` periods' costs of every resource, in a ring
    buffer, plus running sum, min and max over all recorded periods."""

    def __init__(self, m_count: int, window: int = 1):
        if m_count < 1:
            raise ValidationError("history needs at least one resource")
        if window < 1:
            raise ValidationError("history window must be at least 1")
        self.m_count = m_count
        self.window = window
        self._recent = np.empty((window, m_count))
        self._periods = 0
        self._sum = np.zeros(m_count)
        self._min = np.full(m_count, np.inf)
        self._max = np.full(m_count, -np.inf)

    def record_period(self, costs) -> None:
        """Record one period's cost for every resource at once."""
        costs = np.asarray(costs, dtype=float)
        if costs.shape != (self.m_count,):
            raise ValidationError(
                f"expected {self.m_count} costs, got shape {costs.shape}")
        # NaN fails the first comparison, infinities one of the two.
        if not (np.minimum.reduce(costs) >= 0.0
                and np.maximum.reduce(costs) < np.inf):
            bad = costs[~(np.isfinite(costs) & (costs >= 0.0))][0]
            raise ValidationError(f"cost must be finite and >= 0, got {bad}")
        self._recent[self._periods % self.window] = costs
        self._periods += 1
        self._sum += costs
        np.minimum(self._min, costs, out=self._min)
        np.maximum(self._max, costs, out=self._max)

    def full_periods(self) -> int:
        """Periods recorded so far."""
        return self._periods

    def window_extremes(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-resource min and max over the min(r, recorded) most recent
        periods."""
        filled = min(self._periods, self.window)
        if r >= filled:
            rows = self._recent[:filled]
        else:
            rows = self._recent[(self._periods - 1 - np.arange(r))
                                % self.window]
        return rows.min(axis=0), rows.max(axis=0)


def emit_signal(history: CostHistory, scheme: Scheme, m_count: int,
                initial: np.ndarray | None = None) -> np.ndarray:
    """Signal for the coming period from what the history holds so far.

    Without ``initial`` the warm-up signal is zero: scalar schemes wait
    for one recorded period, interval schemes for two.  With it,
    ``initial`` is the signal before any cost is recorded and stays in
    the envelope as a pseudo-observation: under ``extreme`` and
    ``subinterval`` until ``window`` costs are recorded, under
    ``full_extreme`` for good.  ``now`` and ``mean`` read recorded
    costs only.
    """
    if m_count != history.m_count:
        raise ValidationError(
            f"history covers {history.m_count} resources, asked for {m_count}")
    if scheme.history_window() > history.window:
        raise ValidationError(
            f"{scheme.label()} needs {scheme.history_window()} periods of "
            f"history, which keeps {history.window}")
    periods = history.full_periods()
    if initial is not None and periods == 0:
        return np.array(initial, dtype=float)
    scalar = scheme.kind in ("now", "mean")
    if initial is None and periods < (1 if scalar else 2):
        return np.zeros((m_count, 2))
    if scheme.kind == "now":
        lo = hi = history._recent[(periods - 1) % history.window]
    elif scheme.kind == "mean":
        lo = hi = history._sum / periods
    elif scheme.kind == "full_extreme":
        lo, hi = history._min, history._max
    else:
        lo, hi = history.window_extremes(scheme.window)
    if initial is not None and (scheme.kind == "full_extreme" or (
            not scalar and periods < scheme.window)):
        lo = np.minimum(lo, initial[:, 0])
        hi = np.maximum(hi, initial[:, 1])
    signal = np.empty((m_count, 2))
    signal[:, 0], signal[:, 1] = lo, hi
    if scheme.kind == "subinterval" and scheme.shrink != 1.0:
        mid = signal.mean(axis=1)
        half = scheme.shrink * (signal[:, 1] - signal[:, 0]) / 2.0
        signal[:, 0] = mid - half
        signal[:, 1] = mid + half
    return signal
