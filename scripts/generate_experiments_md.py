#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from the live experiment suite.

Runs all seventeen experiments with their default (paper-scale)
configurations and writes the measured tables, each prefaced with the
paper's stated claim, so the document is always the current
paper-vs-measured record.

Usage::

    python scripts/generate_experiments_md.py [output_path]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.experiments import EXPERIMENTS

PREAMBLE = """\
# EXPERIMENTS — paper vs measured

Reproduction record for *"A New Analytical Method for Parallel,
Diffusion-type Load Balancing"* (Berenbrink, Friedetzky & Hu, IPPS 2006).

The paper is purely analytical — it contains **no empirical tables or
figures**; its evaluation is the set of theorems and lemmas plus the
comparative claims of Sections 2-3.  Each experiment below therefore
reproduces one *stated result*: "paper" is the stated bound/constant,
"measured" is what our implementation does, and each table's notes say
exactly which column must satisfy what for the claim to hold.  Every
check is also asserted by `pytest benchmarks/ --benchmark-only`.

Scope notes:

- Bounds hold as *upper* bounds; measured/bound ratios of 0.2-0.5 are the
  norm — the paper's constants are not tight, and the tables make the
  slack visible rather than hiding it.
- Dynamic-network scenarios with low keep-probability can sample
  disconnected rounds; those contribute `lambda_2 = 0` to Theorem 7/8's
  average `A_K`, making the bound extremely loose but still valid — kept
  as-is because that is what the theorem predicts.
- E10 reports an honest nuance: the paper's factor-4 claim versus
  dimension exchange targets the [GM94] two-stage matchings (column
  `speedup_gm94`, which is > 1 everywhere); the *stronger* Luby matching
  generator can beat damped diffusion on degree-2 graphs.

This file is generated by `scripts/generate_experiments_md.py`.
"""

CLAIMS = {
    "e01": "**Theorem 4 (paper):** continuous Algorithm 1 reaches `Phi <= eps*Phi_0` within `T = 4*delta*ln(1/eps)/lambda_2` rounds.",
    "e02": "**Theorem 6 + Lemma 5 (paper):** discrete Algorithm 1 reaches `Phi* = 64*delta^3*n/lambda_2` within `T = (8*delta/lambda_2)*ln(Phi_0/Phi*)` rounds, dropping at least `lambda_2/(8*delta)` per round above the threshold.",
    "e03": "**Lemmas 1-2 (paper):** each weight-ordered activation drops the potential by at least `w_ij*|l_i-l_j|`; a concurrent round achieves at least half the idealized sequential drop.",
    "e04": "**Theorem 7 (paper):** on dynamic networks, `K = O(ln(1/eps)/A_K)` rounds suffice, `A_K` the average `lambda_2^(k)/delta^(k)`.",
    "e05": "**Theorem 8 (paper, new):** discrete dynamic networks reach `Phi* = 64*n*max_k(delta_k^3/lambda_2,k)` within `K = O(ln(Phi_0/Phi*)/A_K)` rounds.",
    "e06": "**Lemma 9 (paper):** `Pr[max(d_i,d_j) <= 5 | (i,j) in E] > 1/2` in Algorithm 2's link graph; side claim: max partner degree is `Theta(log n/log log n)`.",
    "e07": "**Lemma 10 (paper):** `sum_ij (l_i-l_j)^2 = 2*n*Phi(L)` — an identity; measured as float64 noise.",
    "e08": "**Lemma 11 + Theorem 12 (paper):** continuous Algorithm 2 contracts `E[Phi]` by 19/20 per round; `T = 120*c*ln(Phi_0)` rounds give `Phi <= e^-c` with probability `>= 1 - Phi_0^(-c/4)`.",
    "e09": "**Lemma 13 + Theorem 14 (paper):** discrete Algorithm 2 contracts `E[Phi]` by 39/40 per round above `3200n`; `T = 240*c*ln(Phi_0/3200n)` rounds reach `3200n` w.h.p.",
    "e10": "**Section 3 (paper):** Algorithm 1 converges a constant factor faster than [GM94] dimension exchange (guaranteed drops `lambda_2/4delta` vs `lambda_2/16delta`).",
    "e11": "**Remark after Lemma 5 (paper):** the discrete stall threshold is *linear* in `n`, versus the quadratic threshold of [MGS98].",
    "e12": "**Section 2 / [MGS98], [DFM99]:** second-order diffusion beats first-order (most on badly connected graphs); OPS balances exactly in `m-1` rounds (`m` distinct Laplacian eigenvalues).",
    "e13": "**Section 2 / [RSW98]:** the discrete-vs-idealized deviation is bounded by the local divergence `Psi`, and `Psi = O(delta*log n/mu)`.",
    "e14": "**Extension / [EMP02] (paper's ref. [9]):** speed-weighted diffusion converges to the proportional state `l_i* = s_i*(sum l)/(sum s)`; with unit speeds it reduces to Algorithm 1 exactly.",
    "e15": "**Extension / [Cortes02] (paper's ref. [5]):** fully asynchronous balancing (one node per tick) costs only a constant factor more work than the synchronous algorithm — the sequentialization argument run in reverse.",
    "e16": "**Analysis:** Theorem 4's slack localized — the measured per-round potential progress is ~2x the guaranteed `lambda_2/(4 delta)` on *every* workload including the slowest (Fiedler) mode, i.e. the bound is tight up to exactly Lemma 1's deliberate factor-2 concurrency giveaway.",
    "e17": "**Systems view (token-distribution literature the paper cites, [PU89]/[MOW96]):** running discrete Algorithm 1 at token granularity, total migrations are policy-independent but LIFO leave-policies concentrate churn on few tokens while FIFO spreads it evenly — invisible to the counting view the theorems use.",
}


def main(out_path: str | None = None) -> int:
    out = Path(out_path) if out_path else Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
    parts = [PREAMBLE]
    for eid in sorted(EXPERIMENTS):
        t0 = time.time()
        table = EXPERIMENTS[eid]()
        elapsed = time.time() - t0
        parts.append(f"\n---\n\n## {eid.upper()}\n")
        parts.append(CLAIMS[eid])
        parts.append("")
        parts.append(table.to_markdown())
        parts.append(f"\n_regenerate with `repro-lb experiment {eid}`_")
        print(f"{eid}: done in {elapsed:.1f}s")
    out.write_text("\n".join(parts) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1] if len(sys.argv) > 1 else None))
