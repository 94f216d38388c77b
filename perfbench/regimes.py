"""The benchmark workloads: one Datalog regime each.

A regime names a program from ``repro.datalog.programs``, builds its
EDB frames from ``repro.synth_data`` for a seed, and answers the same
program with an oracle that shares no code with ``repro.core``. Why each
regime is in the benchmark, and which layer it leaves idle, is written
down in ``perfbench/README.md``.

``tiny`` inputs run the same code paths in a few seconds; the self-test
uses them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import duckdb
import numpy as np
import pandas as pd

from repro import synth_data
from repro.baselines import graspan_like
from repro.datalog import programs

Inputs = dict[str, pd.DataFrame]

#: Shapes are fixed; ``--seed`` only renames vertices (see ``_relabel``).
STRUCTURE_SEED = 0
#: chain length; with STRUCTURE_SEED 0 the null fixpoint takes 9 iterations
CSDA_DEPTH = 6
#: Gn-p size: closure of about 1.4M pairs
TC_GRAPH = (1_200, 0.004)


@dataclass(frozen=True)
class Regime:
    name: str
    program: str
    make_inputs: Callable[[int, bool], Inputs]
    oracle: Callable[[Inputs], Inputs]
    #: IDBs with set semantics: the Δ sizes the engine records sum to
    #: the final row count.
    set_idbs: tuple[str, ...]
    #: the engine must take the PBME fast path on this regime, and only here
    pbme: bool = False

    def parsed_program(self):
        return programs.get_program(self.program)


def _relabel(edb: Inputs, vertex_cols: dict[str, tuple[str, ...]], n: int, seed: int) -> Inputs:
    """Rename vertex ids with a seeded permutation of ``range(n)``.

    The graph keeps its shape, so every seed costs the same number of
    iterations and rows, while the ids (and with them hash partitioning
    and join order inside a partition) change with the seed.
    """
    perm = np.random.default_rng(seed).permutation(n).astype("int64")
    return {
        name: df.assign(**{c: perm[df[c].to_numpy()] for c in vertex_cols.get(name, ())})
        for name, df in edb.items()
    }


def _csda_inputs(seed: int, tiny: bool) -> Inputs:
    depth = 4 if tiny else CSDA_DEPTH
    edb = synth_data.csda_input(scale=1, depth=depth, seed=STRUCTURE_SEED)
    both = ("src", "dst")
    return _relabel(edb, {"nullEdge": both, "arc": both}, 20 * depth, seed)


def _tc_inputs(seed: int, tiny: bool) -> Inputs:
    n, p = (200, 0.01) if tiny else TC_GRAPH
    edb = {"arc": synth_data.gnp_arcs(n=n, p=p, seed=STRUCTURE_SEED)}
    return _relabel(edb, {"arc": ("src", "dst")}, n, seed)


def _duckdb_tc(edb: Inputs) -> Inputs:
    con = duckdb.connect()
    try:
        con.register("arc", edb["arc"].set_axis(["src", "dst"], axis=1))
        tc = con.execute(
            """
            WITH RECURSIVE tc(c0, c1) AS (
                SELECT src, dst FROM arc
                UNION
                SELECT tc.c0, arc.dst FROM tc JOIN arc ON tc.c1 = arc.src
            )
            SELECT c0, c1 FROM tc
            """
        ).fetchdf()
    finally:
        con.close()
    return {"tc": tc}


REGIMES: dict[str, Regime] = {
    r.name: r
    for r in (
        Regime(
            "csda-chains", "csda", _csda_inputs,
            lambda edb: {"null": graspan_like.solve_csda(edb)},
            set_idbs=("null",),
        ),
        Regime("tc-pbme", "tc", _tc_inputs, _duckdb_tc, set_idbs=(), pbme=True),
    )
}
