"""Travel-time curves, capacity excess, and both models' social cost.

Network edges use the BPR volume-delay curve F(1+B(x/chi)^p), optionally
with the load/capacity ratio clamped at 1 ("capped"). The abstract model
prices action counts with small cost functions (``AbstractCostFn``);
``CostTable`` evaluates a whole list of them on ``(..., M)`` counts in a
few array operations, with each action's arithmetic identical to its own
``AbstractCostFn`` call.

Two numeric choices are made here once for both models, so the bytes a
seed produces depend on the C library and not on the CPU: every power
is C's ``pow``, taken element by element (``_pow``), and every social
cost is a ``math.fsum`` of its terms.

Both models' runs price after their loop: ``social_cost_abstract``,
``social_cost_network`` and ``total_excess`` each take a run's ``(T,
n)`` columns as well as one period's ``(n,)`` row, and give each period
the bytes of its own call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Network, ValidationError, require_real


def _c_pow(base: float, exponent: float) -> float:
    """C's ``pow``, with an overflow giving inf as numpy's power does."""
    try:
        return math.pow(base, exponent)
    except OverflowError:
        return math.inf


# numpy's array power may take a vectorized routine (on CPUs with
# AVX-512) that differs from C's pow in the last bit on some inputs.
# Calling pow element by element gives every power the same bits
# whatever the CPU and the shape of the operands.
_pow_ufunc = np.frompyfunc(_c_pow, 2, 1)


def _pow(base, exponent) -> np.ndarray:
    """Element-wise C ``pow`` of two broadcastable float arrays."""
    return np.asarray(_pow_ufunc(base, exponent), dtype=float)


def _per_edge(net: Network, flows, columns: bool = False) -> np.ndarray:
    """``flows`` as an array, checked to hold one flow per edge, or with
    ``columns`` a ``(T, E)`` run of them."""
    flows = np.asarray(flows)
    edges = net.capacities.shape
    if not (flows.shape == edges
            or (columns and flows.ndim == 2 and flows.shape[1:] == edges)):
        raise ValidationError(
            f"expected {net.edge_count} edge flows, got shape {flows.shape}")
    return flows


def edge_costs(net: Network, flows: np.ndarray, capped: bool) -> np.ndarray:
    """BPR times for all edges at once (file order); ``flows`` must hold
    one flow per edge, or it is a ``ValidationError``."""
    flows = _per_edge(net, flows)
    ratio = flows / net.capacities
    if capped:
        ratio = np.minimum(ratio, 1.0)
    return net.free_flows * (1.0 + net.b_coeffs * _pow(ratio, net.powers))


def total_excess(net: Network, flows: np.ndarray) -> float | np.ndarray:
    """Sum of per-edge capacity excess, one flow per edge as in
    ``edge_costs``; a float, or of ``(T, E)`` flows one per row, each the
    same sum as the row's own."""
    flows = _per_edge(net, flows, columns=True)
    excess = np.maximum(flows - net.capacities, 0.0).sum(axis=-1)
    return float(excess) if excess.ndim == 0 else excess


def _fsum_rows(terms: np.ndarray) -> float | np.ndarray:
    """Correctly rounded sum of ``terms`` along the last axis, whatever
    their order, the BLAS build, the CPU and Python version: a float for
    a vector, and for ``(T, n)`` columns an array of one sum per row,
    each summed from that row alone.  ``math.fsum`` reads each row
    through a ``memoryview``, which hands it the row's numbers one
    Python float at a time, with no list of them built."""
    if terms.ndim == 1:
        return math.fsum(memoryview(terms))
    return np.fromiter(map(math.fsum, map(memoryview, terms)), dtype=float,
                       count=len(terms))


def social_cost_network(flows, costs) -> float | np.ndarray:
    """Total travel time: sum over edges of flow times cost, already
    evaluated (``costs``), summed as ``social_cost_abstract`` sums, and
    refused as it refuses them when the shapes differ.  ``(E,)`` inputs
    give a float, a run's ``(T, E)`` columns one cost per period."""
    if np.ndim(flows) not in (1, 2) or np.shape(flows) != np.shape(costs):
        raise ValidationError("one flow per cost required")
    return _fsum_rows(np.multiply(flows, costs))


# Each kind's formula, written once.  ``params`` holds the kind's
# parameters in ``AbstractCostFn.params`` order, each either a scalar
# (one function) or an ``(M,)`` vector that broadcasts against ``(..., M)``
# counts (``CostTable``); the arithmetic per element is the same.

def _polynomial(params, n):
    """Horner over ascending coefficients, highest first."""
    out = np.zeros_like(n)
    for coeff in reversed(params):
        out = out * n + coeff
    return out


def _flapping(params, n):
    """1 below the majority threshold of N, then (J+1)^((2n-N)/N)."""
    j, total = params
    exponent = (2.0 * n - total) / total
    return np.where(n < (total + 1) / 2.0, 1.0, _pow(j + 1.0, exponent))


def _linear_over_n(params, n):
    """n/N + offset."""
    total, offset = params
    return n / total + offset


_FORMULAS = {"polynomial": _polynomial, "flapping": _flapping,
             "linear_over_N": _linear_over_n}
# Parameter count per kind; None means any (polynomial coefficients).
_ARITY = {"polynomial": None, "flapping": 2, "linear_over_N": 2}
# Position of the agent count N among each kind's parameters.
_AGENT_COUNT_AT = {"flapping": 1, "linear_over_N": 0}


@dataclass(frozen=True)
class AbstractCostFn:
    """Scalar cost of loading ``n`` agents onto one action.

    kinds: ``polynomial`` (ascending coefficients over n), ``flapping``
    (params (J, N): 1 below the majority threshold, then
    (J+1)^((2n-N)/N)), ``linear_over_N`` (params (N, offset): n/N+offset).
    Each parameter is read through ``require_real`` and stored as a
    float.  An unknown kind, a wrong parameter count, a non-finite
    parameter, an agent count N below 1 or a flapping magnitude J not
    above 0 is a ``ValidationError`` at construction.  Runs price counts
    through ``CostTable``; the call is the reference that tests hold each
    table entry to, bit for bit, and prices the dump script's idle and
    full costs.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _FORMULAS:
            raise ValidationError(
                f"unknown cost kind {self.kind!r}; "
                f"expected one of {sorted(_FORMULAS)}")
        try:
            params = tuple(require_real(p, "cost parameter")
                           for p in self.params)
        except (TypeError, ValidationError):
            raise ValidationError(
                f"{self.kind} cost parameters must be a sequence of numbers: "
                f"{self.params!r}") from None
        arity = _ARITY[self.kind]
        if arity is not None and len(params) != arity:
            raise ValidationError(
                f"{self.kind} cost takes {arity} parameters, "
                f"got {self.params!r}")
        if not all(map(math.isfinite, params)):
            raise ValidationError(
                f"{self.kind} cost parameters must be finite: "
                f"{self.params!r}")
        if self.kind in _AGENT_COUNT_AT \
                and params[_AGENT_COUNT_AT[self.kind]] < 1:
            raise ValidationError(
                f"{self.kind} cost needs an agent count N >= 1: "
                f"{self.params!r}")
        if self.kind == "flapping" and params[0] <= 0:
            raise ValidationError("flapping magnitude must be > 0")
        object.__setattr__(self, "params", params)

    def __call__(self, n):
        out = _FORMULAS[self.kind](self.params, np.asarray(n, dtype=float))
        if out.ndim == 0:
            return float(out)
        return out


class CostTable:
    """Every action's cost function, evaluated in one pass.

    Built once from a list of ``M`` cost functions; calling it maps
    ``(..., M)`` counts to ``(..., M)`` costs.  Actions are grouped by
    kind, each group's parameters stacked into ``(M_kind,)`` vectors and
    run through the kind's formula once.  Each stack is a matrix
    zero-padded at the high end.  Fixed-arity kinds pad nothing; a
    lower-degree polynomial's Horner steps first yield exact zeros and
    then match its own call step for step.  Every entry equals the
    action's ``AbstractCostFn`` call bit for bit.
    """

    def __init__(self, fns):
        self.action_count = len(fns)
        by_kind: dict[str, list[int]] = {}
        for m, fn in enumerate(fns):
            by_kind.setdefault(fn.kind, []).append(m)
        self._groups = []
        for kind, members in by_kind.items():
            width = max(len(fns[m].params) for m in members)
            matrix = np.zeros((len(members), width))
            for row, m in enumerate(members):
                matrix[row, :len(fns[m].params)] = fns[m].params
            # one contiguous (M_kind,) vector per parameter
            params = list(np.ascontiguousarray(matrix.T))
            self._groups.append((_FORMULAS[kind], params,
                                 np.array(members, dtype=np.int64)))

    def __call__(self, counts) -> np.ndarray:
        counts = np.asarray(counts, dtype=float)
        if counts.ndim < 1 or counts.shape[-1] != self.action_count:
            raise ValidationError(
                f"counts must have shape (..., {self.action_count}), "
                f"got {counts.shape}")
        if len(self._groups) == 1:
            # one kind covers every action in order: no gather or scatter
            formula, params, _ = self._groups[0]
            return formula(params, counts)
        out = np.empty(counts.shape)
        for formula, params, members in self._groups:
            out[..., members] = formula(params, counts[..., members])
        return out


def polynomial_cost_fn(coefficients) -> AbstractCostFn:
    return AbstractCostFn("polynomial", tuple(coefficients))


def flapping_cost_fn(j: float, total_agents: float) -> AbstractCostFn:
    return AbstractCostFn("flapping", (j, total_agents))


def linear_cost_fn(total_agents: float, offset: float = 0.0) -> AbstractCostFn:
    return AbstractCostFn("linear_over_N", (total_agents, offset))


def social_cost_abstract(counts, costs,
                         total_agents: float) -> float | np.ndarray:
    """Population-weighted cost: sum over actions of (n_m/N) c_m, where
    ``costs`` holds each action's cost c_m(n_m), already evaluated.

    ``(M,)`` counts and costs give a float; a run's ``(T, M)`` columns
    give one social cost per period, each the same float as that
    period's own call, so a run prices its periods after its loop.  The
    terms are summed with ``math.fsum``, one period's row at a time, so
    each result is their correctly rounded sum whatever their order and
    Python version.  A total that ``require_real`` refuses, or one not
    in ``(0, inf)``, is a ``ValidationError``, and so are counts and
    costs of different shapes, or a period whose counts do not sum to
    the total (the first such period is named by its sum)."""
    counts = np.asarray(counts, dtype=float)
    total_agents = require_real(total_agents, "total agent count")
    if not 0.0 < total_agents < math.inf:
        raise ValidationError(
            f"total agent count must be positive and finite, "
            f"got {total_agents}")
    if counts.ndim not in (1, 2) or counts.shape != np.shape(costs):
        raise ValidationError("one count per cost required")
    sums = counts.sum(axis=-1)
    off = np.abs(sums - total_agents) > 1e-9 * max(1.0, abs(total_agents))
    if off.any():
        raise ValidationError(
            f"counts sum to {sums[off][0]}, expected {total_agents}")
    terms = np.divide(counts, total_agents)
    return _fsum_rows(np.multiply(terms, costs, out=terms))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_scalar_on_interval(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section search for the minimum of ``fn`` on ``[lo, hi]``;
    returns the argmin and ``fn`` there.

    ``fn`` must be unimodal on the interval: each step drops the end of
    the bracket that cannot hold the minimum of a unimodal function
    (Kiefer, Proc. AMS 4(3), 1953), and a second local minimum could be
    dropped with it.  Both callers minimize a convex objective.  The
    bracket shrinks by the golden ratio per step, so 200 steps narrow it
    by a factor of about 1e-42, past a float's resolution of the
    callers' intervals; no derivative is needed.
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return float(x), float(fn(x))
