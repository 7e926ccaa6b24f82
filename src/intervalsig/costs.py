"""Travel-time curves, capacity excess, and abstract social cost.

Network edges use the BPR volume-delay curve F(1+B(x/chi)^p), optionally
with the load/capacity ratio clamped at 1 ("capped"). The abstract model
uses small scalar cost functions evaluated on action counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Edge, Network, ValidationError


def bpr_time(edge: Edge, flow: float) -> float:
    """F(1 + B (x/chi)^p); 0^0 is taken as 1 so power-0 edges cost F(1+B)."""
    ratio = flow / edge.capacity
    return edge.free_flow * (1.0 + edge.b_coeff * ratio ** edge.power)


def bpr_time_capped(edge: Edge, flow: float) -> float:
    """BPR time with the load/capacity ratio clamped at 1."""
    ratio = min(flow / edge.capacity, 1.0)
    return edge.free_flow * (1.0 + edge.b_coeff * ratio ** edge.power)


def excess(edge: Edge, flow: float) -> float:
    """Agents above capacity: max(flow - capacity, 0)."""
    return max(flow - edge.capacity, 0.0)


def _edge_arrays(net: Network):
    cached = getattr(net, "_cost_arrays", None)
    if cached is None:
        cached = (
            np.array([e.capacity for e in net.edges]),
            np.array([e.free_flow for e in net.edges]),
            np.array([e.b_coeff for e in net.edges]),
            np.array([e.power for e in net.edges]),
        )
        net._cost_arrays = cached
    return cached


def edge_costs(net: Network, flows: np.ndarray, capped: bool) -> np.ndarray:
    """Vectorized BPR times for all edges at once (file order)."""
    caps, ffts, bs, ps = _edge_arrays(net)
    ratio = flows / caps
    if capped:
        ratio = np.minimum(ratio, 1.0)
    return ffts * (1.0 + bs * ratio ** ps)


def total_excess(net: Network, flows: np.ndarray) -> float:
    """Sum of per-edge capacity excess."""
    caps, _, _, _ = _edge_arrays(net)
    return float(np.maximum(flows - caps, 0.0).sum())


@dataclass(frozen=True)
class AbstractCostFn:
    """Scalar cost of loading ``n`` agents onto one action.

    kinds: ``polynomial`` (ascending coefficients over n), ``flapping``
    (params (J, N): 1 below the majority threshold, then
    (J+1)^((2n-N)/N)), ``linear_over_N`` (params (N, offset): n/N+offset).
    """

    kind: str
    params: tuple

    def __call__(self, n):
        n = np.asarray(n, dtype=float)
        if self.kind == "polynomial":
            out = np.zeros_like(n)
            for coeff in reversed(self.params):
                out = out * n + coeff
        elif self.kind == "flapping":
            j, total = self.params
            out = np.where(n < (total + 1) / 2.0,
                           1.0,
                           (j + 1.0) ** ((2.0 * n - total) / total))
        elif self.kind == "linear_over_N":
            total, offset = self.params
            out = n / total + offset
        else:
            raise ValidationError(f"unknown cost kind {self.kind!r}")
        if out.ndim == 0:
            return float(out)
        return out


def polynomial_cost_fn(coefficients) -> AbstractCostFn:
    return AbstractCostFn("polynomial", tuple(float(c) for c in coefficients))


def flapping_cost_fn(j: float, total_agents: int) -> AbstractCostFn:
    if j <= 0:
        raise ValidationError("flapping magnitude must be > 0")
    return AbstractCostFn("flapping", (float(j), int(total_agents)))


def linear_cost_fn(total_agents: int, offset: float = 0.0) -> AbstractCostFn:
    return AbstractCostFn("linear_over_N", (int(total_agents), float(offset)))


def social_cost_abstract(counts, costs, total_agents: float) -> float:
    """Population-weighted cost: sum over actions of (n_m/N) c_m, where
    ``costs`` holds each action's cost c_m(n_m), already evaluated."""
    counts = np.asarray(counts, dtype=float)
    if total_agents <= 0:
        raise ValidationError("total agent count must be positive")
    if len(counts) != len(costs):
        raise ValidationError("one count per cost required")
    if abs(counts.sum() - total_agents) > 1e-9 * max(1.0, abs(total_agents)):
        raise ValidationError(
            f"counts sum to {counts.sum()}, expected {total_agents}")
    return float(sum((n / total_agents) * cost
                     for n, cost in zip(counts, costs)))


def time_averaged_cost(series) -> float:
    """Arithmetic mean of a nonempty per-period cost series."""
    series = list(series)
    if not series:
        raise ValidationError("cannot average an empty cost series")
    return float(np.mean(series))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(fn, lo: float, hi: float, iterations: int = 200) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


def minimize_scalar_on_interval(fn, lo: float, hi: float,
                                grid_points: int = 4001) -> tuple[float, float]:
    """Dense grid scan plus golden-section refinement around the best cell.

    Deterministic and derivative-free; suitable for the small 1-D
    objectives in this package (unimodal near their optimum).
    """
    xs = np.linspace(lo, hi, grid_points)
    vals = np.array([fn(x) for x in xs])
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, grid_points - 1)]
    x = _golden_section(fn, a, b)
    return float(x), float(fn(x))


def minimize_two_action_cost(cost_a: AbstractCostFn, cost_b: AbstractCostFn,
                             total_agents: float) -> tuple[float, float]:
    """Continuous minimizer of the two-action social cost over the split
    x in [0, N] (x agents on the first action, N-x on the second)."""
    def objective(x):
        return ((x / total_agents) * cost_a(x)
                + ((total_agents - x) / total_agents)
                * cost_b(total_agents - x))
    return minimize_scalar_on_interval(objective, 0.0, float(total_agents))
