"""repro — parallel, diffusion-type load balancing.

A production-quality reproduction of

    Petra Berenbrink, Tom Friedetzky, Zengjian Hu.
    "A New Analytical Method for Parallel, Diffusion-type Load Balancing."
    IPPS/IPDPS 2006.

The package provides

- the paper's algorithms — **Algorithm 1** (concurrent diffusion on a
  fixed or dynamic network, continuous and discrete) and **Algorithm 2**
  (random balancing partners) — plus the baselines they are compared to
  (first-/second-order diffusion, random-matching dimension exchange,
  the Optimal Polynomial Scheme, randomized-rounding discrete diffusion);
- the *sequentialization* proof technique as executable code
  (:mod:`repro.core.sequential`);
- every quantitative bound of the paper (:mod:`repro.core.bounds`);
- graph substrates, simulation engines (vectorized and message-passing),
  Monte-Carlo replication, and the experiment suite reproducing each
  theorem/lemma (:mod:`repro.experiments`).

Quickstart::

    import numpy as np
    from repro import graphs, core, simulation

    topo = graphs.torus_2d(8, 8)
    loads = simulation.point_load(topo.n, total=6400)
    bal = core.DiffusionBalancer(topo, mode="discrete")
    trace = simulation.run_balancer(bal, loads, rounds=200)
    print(trace.summary())
"""

import importlib

__version__ = "1.0.0"

#: Subpackages, imported on first attribute access (PEP 562) so that
#: ``import repro.<module>`` loads only what that module needs — a
#: ``repro-lb worker`` never pays for the analysis or experiment stack.
_SUBPACKAGES = ("analysis", "baselines", "core", "extensions", "graphs", "simulation")

__all__ = [*_SUBPACKAGES, "__version__"]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
