"""Engine configuration: one switch per optimization of Section 5.

The defaults are "RecStep with everything on". Each flag maps to one of
the paper's ablations (Figure 2/3): turning a flag off reproduces the
corresponding OOF-NA / OOF-FA / no-UIE / no-DSD / no-EOST / no-FAST-DEDUP
configuration, and ``all_off()`` reproduces RecStep-NO-OP.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class RecStepOptions:
    """Switches for the optimizations of Section 5.

    Attributes
    ----------
    uie:
        Unified IDB Evaluation — evaluate all subqueries deriving one IDB
        as a single unioned plan (True) instead of materializing each
        subquery separately and unioning afterwards (False).
    oof:
        Optimization On the Fly mode: ``"oof"`` collects exactly the
        statistics each decision needs (table sizes for join sides and
        set difference); ``"na"`` collects nothing and keeps a static
        plan; ``"fa"`` collects the full statistics set (per-column
        min/max/avg too), reproducing the paper's OOF-FA overhead.
    dsd:
        Dynamic Set Difference — choose OPSD/TPSD per iteration with the
        Appendix A cost model (True) or always use OPSD (False).
    eost:
        Evaluation as One Single Transaction — keep all iteration state
        in memory (``localCheckpoint``) and only deliver results at the
        end (True), or commit every iteration's IDB state to Parquet and
        read it back, emulating per-query transactional I/O (False).
    fast_dedup:
        Compact-concatenated-key deduplication for narrow all-integer
        relations (True) or generic multi-column ``dropDuplicates``.
    pbme:
        Parallel Bit-Matrix Evaluation for TC/SG-shaped programs on
        small active domains (Section 5.3).
    alpha:
        DSD cost-model build/probe cost ratio (α). Calibrate offline with
        :func:`repro.core.setdiff.calibrate_alpha` or keep the default.
    broadcast_rows:
        OOF join-side decision: a relation whose latest analyzed row
        count is below this is broadcast-hinted (the Catalyst analogue of
        "build the hash table on the smaller side").
    pbme_max_vertices:
        PBME applies only if two n×n bit matrices fit comfortably in
        memory (paper: "only if the memory available can fit the bit
        matrix and its indexes").
    """

    uie: bool = True
    oof: str = "oof"
    dsd: bool = True
    eost: bool = True
    fast_dedup: bool = True
    pbme: bool = False
    alpha: float = 2.0
    broadcast_rows: int = 200_000
    pbme_max_vertices: int = 20_000

    def __post_init__(self) -> None:
        if self.oof not in ("oof", "na", "fa"):
            raise ValueError(f"oof mode must be oof/na/fa, got {self.oof!r}")
        if self.alpha <= 1.0:
            raise ValueError("alpha must exceed 1 (building costs more than probing)")

    @staticmethod
    def all_on() -> "RecStepOptions":
        return RecStepOptions()

    @staticmethod
    def all_off() -> "RecStepOptions":
        """RecStep-NO-OP of Figure 2: every optimization disabled."""
        return RecStepOptions(
            uie=False, oof="na", dsd=False, eost=False, fast_dedup=False, pbme=False
        )

    def without(self, opt: str) -> "RecStepOptions":
        """All-on except one optimization (the Figure 2 ablation axis)."""
        if opt == "uie":
            return replace(self, uie=False)
        if opt == "oof":
            return replace(self, oof="na")
        if opt == "oof-fa":
            return replace(self, oof="fa")
        if opt == "dsd":
            return replace(self, dsd=False)
        if opt == "eost":
            return replace(self, eost=False)
        if opt == "fast_dedup":
            return replace(self, fast_dedup=False)
        raise ValueError(f"unknown optimization {opt!r}")
