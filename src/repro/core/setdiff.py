"""DSD — Dynamic Set Difference (Section 5.1 + Appendix A).

Semi-naive evaluation computes ``ΔR = Rδ - R`` every iteration (Algorithm
1 line 12). Two SQL translations exist:

- **OPSD** (one-phase): a single anti join. The backend builds the hash
  table on the growing full relation R — increasingly expensive.
- **TPSD** (two-phase): first intersect ``r = R ∩ Rδ`` building the hash
  table on the *smaller* side, then ``ΔR = Rδ - r`` where the
  intersection r is small. More operators, but never hashes R.

In Spark the "build side" choice is expressed with broadcast hints: TPSD
broadcasts Rδ for the intersection probe (hash on Rδ, stream R) and
broadcasts r for the final anti join; OPSD broadcasts R — the paper's
hash table on R — when OOF knows |R| and it fits, and is a shuffled anti
join (both sides shuffled) otherwise. Broadcasts are only hinted when
the row counts say the side fits (`broadcast_rows`).

``choose_set_difference`` implements the Appendix A cost model with
parameters α (build/probe ratio), β = |R|/|Rδ| and μ = |Rδ|/|r|
approximated by the previous iteration's value, and
``calibrate_alpha`` implements the offline α calibration (equation 7).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


@dataclass
class SetDiffDecision:
    method: str  # "opsd" | "tpsd"
    beta: float | None = None
    reason: str = ""


def opsd(new: DataFrame, full: DataFrame, *, broadcast_full: bool = False) -> DataFrame:
    """One-Phase Set Difference: ``new - full`` as a single anti join,
    with the hash table on ``full`` when ``broadcast_full``."""
    build = F.broadcast(full) if broadcast_full else full
    return new.join(build, on=new.columns, how="left_anti")


def tpsd(
    new: DataFrame,
    full: DataFrame,
    *,
    broadcast_new: bool = True,
    broadcast_intersection: bool = True,
) -> DataFrame:
    """Two-Phase Set Difference (Algorithm 5): intersect, then subtract.

    Phase 1 computes r = full ⋉ new with the hash table on ``new`` (the
    smaller side when TPSD is the right choice), phase 2 anti-joins
    ``new`` against the small intersection r.
    """
    cols = new.columns
    probe = F.broadcast(new) if broadcast_new else new
    r = full.join(probe, on=cols, how="left_semi")
    r = F.broadcast(r) if broadcast_intersection else r
    return new.join(r, on=cols, how="left_anti")


def choose_set_difference(
    full_rows: int,
    new_rows: int,
    alpha: float,
    mu_prev: float | None = None,
) -> SetDiffDecision:
    """Appendix A decision: OPSD for β ≤ 1, TPSD for β ≥ 2α/(α-1), and in
    between use μ from the previous iteration (heuristic)."""
    if new_rows <= 0:
        return SetDiffDecision("opsd", None, "empty delta")
    beta = full_rows / new_rows
    threshold = 2 * alpha / (alpha - 1)
    if beta <= 1.0:
        return SetDiffDecision("opsd", beta, "beta <= 1: R is the smaller table")
    if beta >= threshold:
        return SetDiffDecision("tpsd", beta, f"beta >= 2a/(a-1) = {threshold:.2f}")
    if mu_prev is not None and mu_prev > 0:
        # Cost(OPSD) - Cost(TPSD) > 0  iff  β(α-1) > α + α/μ  (equation 5).
        if beta * (alpha - 1) > alpha + alpha / mu_prev:
            return SetDiffDecision("tpsd", beta, "mu heuristic favours TPSD")
    return SetDiffDecision("opsd", beta, "grey zone, mu favours OPSD")


def set_difference(
    new: DataFrame,
    full: DataFrame,
    *,
    method: str,
    broadcast_threshold_rows: int | None = None,
    new_rows: int | None = None,
    full_rows: int | None = None,
) -> DataFrame:
    """Run the chosen translation. OPSD broadcasts R only when
    ``full_rows`` is known and within the broadcast threshold; TPSD
    broadcast hints are suppressed when Rδ is known to exceed it."""
    if method == "opsd":
        return opsd(
            new,
            full,
            broadcast_full=full_rows is not None
            and broadcast_threshold_rows is not None
            and full_rows <= broadcast_threshold_rows,
        )
    bc = True
    if broadcast_threshold_rows is not None and new_rows is not None:
        bc = new_rows <= broadcast_threshold_rows
    return tpsd(new, full, broadcast_new=bc, broadcast_intersection=bc)


def calibrate_alpha(
    spark: SparkSession,
    *,
    pair_sizes: tuple[tuple[int, int], ...] = ((20_000, 200_000), (50_000, 500_000)),
    runs: int = 2,
    seed: int = 0,
) -> float:
    """Offline α calibration (Appendix A equation 7).

    For each table pair (R_i, S_i) with |R_i| <= |S_i| the hash table is
    built on R_i. A broadcast join's build phase is approximated by
    joining S against R, and the probe-dominance by joining a single-row
    build side against S; the ratio of per-tuple costs averaged over runs
    estimates α = C_b / C_p. The estimate is clamped to (1, 16] — the
    model only needs α's magnitude, not precision.
    """
    import numpy as np
    import pandas as pd

    rng = np.random.default_rng(seed)
    ratios = []
    for (r_n, s_n) in pair_sizes:
        r_pdf = pd.DataFrame({"k": rng.integers(0, r_n, r_n), "a": rng.integers(0, 10, r_n)})
        s_pdf = pd.DataFrame({"k": rng.integers(0, r_n, s_n), "b": rng.integers(0, 10, s_n)})
        r_df = spark.createDataFrame(r_pdf).localCheckpoint()
        s_df = spark.createDataFrame(s_pdf).localCheckpoint()
        tiny = spark.createDataFrame(pd.DataFrame({"k": [0], "a": [0]})).localCheckpoint()
        for _ in range(runs):
            t0 = time.perf_counter()
            s_df.join(F.broadcast(r_df), on="k").count()  # build R + probe S
            t_full = time.perf_counter() - t0
            t0 = time.perf_counter()
            s_df.join(F.broadcast(tiny), on="k").count()  # probe-only baseline
            t_probe = time.perf_counter() - t0
            build_time = max(t_full - t_probe, 1e-6)
            # per-tuple build over per-tuple probe
            ratios.append((build_time / r_n) / max(t_probe / s_n, 1e-12))
    alpha = float(np.mean(ratios))
    return min(max(alpha, 1.01), 16.0)
