"""The second-order diffusion scheme (SOS) of Muthukrishnan–Ghosh–Schultz.

[MGS98] generalize first-order diffusion with a momentum term:

    L_1 = M L_0
    L_t = beta * M L_{t-1} + (1 - beta) * L_{t-2}      (t >= 2),

a stationary second-degree Richardson iteration.  With the optimal

    beta = 2 / (1 + sqrt(1 - gamma^2))

the error contracts per round like ``beta - 1 ~ gamma / (1 + sqrt(1-gamma^2))``
— asymptotically the *square root* of the FOS round count on poorly
connected graphs (e.g. a cycle needs Theta(n^2) FOS rounds but only
Theta(n) SOS rounds).  E12 reproduces that comparison.

A known practical caveat reproduced faithfully: with ``beta > 1`` a node
may transiently be asked to send more load than it has, so intermediate
load vectors can dip below zero.  The scheme is therefore continuous-only
here (as in [MGS98]'s analysis) and the non-negativity validation is
relaxed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.first_order import fos_round_continuous, fos_round_node_major
from repro.core.protocols import CONTINUOUS, Balancer, register_balancer
from repro.graphs.spectral import gamma as spectral_gamma
from repro.graphs.topology import Topology

__all__ = ["optimal_beta", "SecondOrderBalancer"]


def optimal_beta(gamma: float) -> float:
    """The optimal momentum parameter ``beta = 2 / (1 + sqrt(1 - gamma^2))``.

    Monotone in ``gamma``: 1 for a perfectly mixing graph (gamma = 0),
    approaching 2 as gamma -> 1.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    return 2.0 / (1.0 + math.sqrt(1.0 - gamma * gamma))


class SecondOrderBalancer(Balancer):
    """SOS adapted to the :class:`Balancer` interface (continuous only).

    Parameters
    ----------
    topology:
        The fixed network.
    beta:
        Momentum parameter; default is the optimal value computed from the
        topology's ``gamma``.  ``beta = 1`` degenerates to FOS exactly.
    """

    supports_batch = True
    #: momentum overshoot can leave a node transiently negative
    allows_negative = True

    def __init__(self, topology: Topology, beta: float | None = None, backend: str | None = None):
        super().__init__()
        self.topology = topology
        self.backend = backend
        self.beta = optimal_beta(spectral_gamma(topology)) if beta is None else float(beta)
        if not 0.0 < self.beta < 2.0:
            raise ValueError(f"beta must be in (0, 2), got {self.beta}")
        self.mode = CONTINUOUS
        self.name = f"sos[beta={self.beta:.4f}]@{topology.name}"

    def step(self, loads: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        loads = self.validate_loads(loads)
        r = self.advance_round()
        prev = self.state.history.get("prev")
        if r == 0 or prev is None:
            nxt = fos_round_continuous(loads, self.topology, backend=self.backend)
        else:
            nxt = (
                self.beta * fos_round_continuous(loads, self.topology, backend=self.backend)
                + (1.0 - self.beta) * prev
            )
        self.state.history["prev"] = loads.copy()
        return nxt

    def step_batch(self, loads: np.ndarray, rngs, out: np.ndarray | None = None) -> np.ndarray:
        """One lockstep round for a node-major ``(n, B)`` batch.

        The momentum history is kept as a node-major matrix, so the
        update is the same two-term recurrence applied columnwise.
        """
        r = self.advance_round()
        prev = self.state.history.get("prev")
        fos = fos_round_node_major(loads, self.topology, backend=self.backend)
        if r == 0 or prev is None:
            nxt = fos
        else:
            nxt = self.beta * fos + (1.0 - self.beta) * prev
        self.state.history["prev"] = loads.copy()
        return nxt


@register_balancer("sos")
def _make_sos(topology: Topology, **kwargs) -> SecondOrderBalancer:
    return SecondOrderBalancer(topology, **kwargs)
