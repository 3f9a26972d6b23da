"""The four benchmark workloads and their output checks.

Each workload turns ``--seed`` into its inputs, sets itself up
(:meth:`setup`), runs one measured pass through the program's public
API (:meth:`run_pass`, which returns the raw outputs and nothing
else), and checks those outputs (:meth:`check`) outside the timed
region.  Checks are invariants of the model — message counts equal to
``2m`` of the compiled topology, round counts equal to ``rho_awk + 1``,
bit-identical warm rows — not pinned row values, so a faster but
equivalent generator or engine keeps passing.

All execution is inline (``workers=0``): one process, no pool, no
extra threads.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import repro.check.explorer as explorer
import repro.experiments.parallel as parallel
import repro.experiments.sweeps as sweeps
import repro.graphs.compile as compile_
from repro.check.worlds import build_check_world
from repro.core.registry import get_algorithm, get_factory
from repro.experiments.parallel import CellOutcome, CellSpec, ParallelSweepExecutor
from repro.experiments.table1 import table1_cells
from repro.versioning import clear_salt_cache

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny``
#: is the smoke-test size of the benchmark's own tests.
SIZES = {
    "sweep_bulk": {"full": {"n": 4096, "trials": 8},
                   "tiny": {"n": 64, "trials": 2}},
    "sweep_table1": {"full": {"n": 256, "seeds": 4},
                     "tiny": {"n": 48, "seeds": 1}},
    "sweep_warm": {"full": {"sizes": (256, 1024, 4096), "trials": 16},
                   "tiny": {"sizes": (32, 64), "trials": 2}},
    "check_explore": {
        "full": {"worlds": (("echo-flooding", "cycle", 5),
                            ("flooding", "complete", 4))},
        "tiny": {"worlds": (("flooding", "complete", 3),)},
    },
}


@dataclass
class PassCheck:
    """What one pass attempted and what failed its checks."""

    attempted: int
    errors: List[str] = field(default_factory=list)
    failed: int = 0

    def fail(self, *messages: str) -> None:
        """Record one failure: a unit that broke one or more checks, or
        one broken pass-level check."""
        self.failed += 1
        self.errors.extend(messages)


def _topology_facts(workload: dict, n: int) -> Tuple[int, float]:
    """``(2m, rho_awk)`` of a compiled topology.  Builds on a miss, so
    call it during set-up only, where building belongs."""
    topo = compile_.compiled_topology(workload, n)
    return 2 * topo.num_edges(), topo.rho_awk


def _facts_key(spec: CellSpec) -> str:
    return json.dumps([spec.workload, spec.n], sort_keys=True)


def check_outcome(
    outcome: CellOutcome, facts: Dict[str, Tuple[int, float]]
) -> List[str]:
    """Invariants every benchmark cell must satisfy.

    Every cell: ``ok`` and ``all_awake``.  Flooding and star-broadcast
    from a single adversary wake send exactly one message per edge
    direction (``2m``); on the synchronous lanes they finish in
    ``rho_awk + 1`` rounds, and a ``bulk`` spec must really have run
    on the bulk lane.
    """
    spec = outcome.spec
    where = f"{spec.algorithm} n={spec.n} trial={spec.trial} seed={spec.seed}"
    if not outcome.ok or outcome.result is None:
        return [f"{where}: cell {outcome.status}: {outcome.error}"]
    res = outcome.result
    errors = []
    if not res.all_awake:
        errors.append(f"{where}: not all awake")
    two_m, rho = facts[_facts_key(spec)]
    if outcome.rho_awk != rho:
        errors.append(f"{where}: rho_awk {outcome.rho_awk} != {rho}")
    if spec.algorithm in ("flooding", "star-broadcast"):
        if res.messages != two_m:
            errors.append(f"{where}: messages {res.messages} != 2m = {two_m}")
        if spec.engine in ("sync", "bulk") and res.time != rho + 1:
            errors.append(f"{where}: rounds {res.time} != rho_awk + 1 = {rho + 1}")
    if spec.engine == "bulk" and res.engine != "bulk":
        errors.append(f"{where}: ran on the {res.engine} lane, not bulk")
    return errors


def check_rows(
    rows: Sequence[sweeps.SweepRow], outcomes: Sequence[CellOutcome]
) -> List[str]:
    """Every size has a row, over all its trials."""
    per_n: Dict[int, int] = {}
    for o in outcomes:
        per_n[o.spec.n] = per_n.get(o.spec.n, 0) + 1
    got = {row.n: row.trials for row in rows}
    if got != per_n:
        return [f"rows cover {got} (n -> trials), expected {per_n}"]
    return []


def row_fingerprint(rows: Sequence[sweeps.SweepRow]) -> str:
    """Exact text form of aggregated rows (``repr`` keeps every bit of
    every float, NaN included)."""
    return repr([astuple(row) for row in rows])


class _Sweep:
    """Shared base of the sweep workloads: a fixed cell list through
    ``ParallelSweepExecutor.run`` and ``rows_from_outcomes``."""

    name = ""

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.params = SIZES[self.name][size]
        self.cells = self.make_cells()
        self.facts: Dict[str, Tuple[int, float]] = {}
        self.executor: Optional[ParallelSweepExecutor] = None

    def make_cells(self) -> List[CellSpec]:
        raise NotImplementedError

    def groups(self, outcomes: Sequence[CellOutcome]):
        """Outcomes aggregated together into one row set."""
        by_algo: Dict[str, List[CellOutcome]] = {}
        for o in outcomes:
            by_algo.setdefault(o.spec.algorithm, []).append(o)
        return list(by_algo.values())

    def setup(self, workdir: Path) -> Optional[PassCheck]:
        """Cold set-up: derive the code salts (``cell_key`` once) and
        build every topology into the in-process cache.  Returns the
        check of any outputs set-up produced."""
        clear_salt_cache()
        compile_.clear_memory_cache()
        parallel.cell_key(self.cells[0])
        self.facts = {}
        for spec in self.cells:
            key = _facts_key(spec)
            if key not in self.facts:
                self.facts[key] = _topology_facts(spec.workload, spec.n)
        self.executor = ParallelSweepExecutor(workers=0, use_cache=False)
        return None

    def run_pass(self):
        outcomes = self.executor.run(self.cells)
        rows = [sweeps.rows_from_outcomes(g) for g in self.groups(outcomes)]
        return outcomes, rows, dict(self.executor.stats)

    def units(self, output) -> Tuple[int, int]:
        """(cells, schedules) a pass delivered.  A sweep cell resolves
        exactly one schedule: its adversary is fixed by the spec."""
        outcomes = output[0]
        done = sum(1 for o in outcomes if o.ok)
        return len(outcomes), done

    def pass_counts(self, output) -> Dict[str, float]:
        """Per-layer counters of one pass, read from its outputs."""
        stats = output[2]
        return {"experiments.cache_hit_ratio": stats["cached"] / stats["cells"]}

    def check(self, output) -> PassCheck:
        outcomes, row_sets, _ = output
        result = PassCheck(attempted=len(outcomes))
        for o in outcomes:
            errors = check_outcome(o, self.facts)
            if errors:
                result.fail(*errors)
        for rows, group in zip(row_sets, self.groups(outcomes)):
            errors = check_rows(rows, group)
            if errors:
                result.fail(*errors)
        return result


class SweepBulk(_Sweep):
    """Flooding (KT0) and star-broadcast (KT1) on the bulk lane over
    one ER topology (average degree 8), cold cell cache."""

    name = "sweep_bulk"

    def make_cells(self):
        p = self.params
        workload = {"kind": "er_single_wake", "avg_degree": 8.0,
                    "seed": self.seed}
        return [
            cell
            for algorithm, knowledge in (("flooding", "KT0"),
                                         ("star-broadcast", "KT1"))
            for cell in sweeps.sweep_cells(
                algorithm, workload, [p["n"]], engine="sync",
                backend="bulk", knowledge=knowledge, trials=p["trials"],
                seed=self.seed,
            )
        ]


class SweepTable1(_Sweep):
    """All eight Table-1 rows over several workload seeds, cold."""

    name = "sweep_table1"

    def make_cells(self):
        p = self.params
        return [cell for s in range(p["seeds"])
                for cell in table1_cells(n=p["n"], seed=self.seed * 1000 + s)]

    def check(self, output) -> PassCheck:
        result = super().check(output)
        for o in output[0]:
            if o.result is None:
                continue
            algo = get_factory(o.spec.algorithm)(**o.spec.algo_params)
            has_advice = o.result.advice_max_bits > 0
            if has_advice != algo.uses_advice:
                result.fail(
                    f"{o.spec.algorithm}: advice_max_bits "
                    f"{o.result.advice_max_bits} (uses_advice="
                    f"{algo.uses_advice})"
                )
        return result


class SweepWarm(_Sweep):
    """A flooding grid over mixed sizes, read back from a warm cell
    cache; the cold fill happens in set-up."""

    name = "sweep_warm"

    def make_cells(self):
        p = self.params
        workload = {"kind": "er_single_wake", "avg_degree": 8.0,
                    "seed": self.seed}
        return sweeps.sweep_cells(
            "flooding", workload, list(p["sizes"]), engine="sync",
            backend="bulk", knowledge="KT0", trials=p["trials"],
            seed=self.seed,
        )

    def groups(self, outcomes):
        return [list(outcomes)]

    def setup(self, workdir: Path) -> PassCheck:
        super().setup(workdir)
        cache_dir = tempfile.mkdtemp(prefix="cells-", dir=workdir)
        self.executor = ParallelSweepExecutor(
            workers=0, cache_dir=cache_dir, use_topology_store=False
        )
        outcomes, rows, stats = super().run_pass()
        fill = super().check((outcomes, rows, stats))
        if stats["executed"] != len(self.cells):
            fill.fail(
                f"cold fill executed {stats['executed']} of "
                f"{len(self.cells)} cells"
            )
        self.cold_rows = row_fingerprint(rows[0])
        return fill

    def check(self, output) -> PassCheck:
        result = super().check(output)
        outcomes, rows, stats = output
        if stats["cached"] != stats["cells"]:
            result.fail(
                f"warm read served {stats['cached']} of {stats['cells']} "
                "cells from the cache"
            )
        if row_fingerprint(rows[0]) != self.cold_rows:
            result.fail("warm rows differ from the cold fill")
        return result


@dataclass
class ExploreOutput:
    world: str
    runs: int
    schedules: int
    states: int
    violations: int
    completed: bool


class CheckExplore:
    """Exhaustive schedule exploration of small worlds through
    ``repro.check.explorer.explore``.  A run (one ``world()`` build
    plus one controlled execution) is this workload's cell."""

    name = "check_explore"

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.params = SIZES[self.name][size]
        self.reference: Optional[List[Tuple[str, int, int]]] = None
        self.worlds: List[Tuple[str, object]] = []

    def setup(self, workdir: Path) -> None:
        # No cell key and no compiled topology on this path: the check
        # worlds build their small graphs directly.
        clear_salt_cache()
        compile_.clear_memory_cache()
        self.worlds = []
        for algorithm, graph, n in self.params["worlds"]:
            world, _ = build_check_world(
                get_algorithm(algorithm), n, graph=graph, seed=self.seed
            )
            self.worlds.append((f"{algorithm}/{graph}/{n}", world))

    def run_pass(self) -> List[ExploreOutput]:
        out = []
        for label, world in self.worlds:
            runs = [0]

            def counted(world=world, runs=runs):
                runs[0] += 1
                return world()

            res = explorer.explore(counted)
            out.append(ExploreOutput(
                label, runs[0], res.stats.schedules, res.stats.states,
                res.stats.violations, res.completed,
            ))
        return out

    def units(self, output) -> Tuple[int, int]:
        return (sum(o.runs for o in output),
                sum(o.schedules for o in output))

    def pass_counts(self, output) -> Dict[str, float]:
        runs, schedules = self.units(output)
        return {"check.runs": runs, "check.schedules": schedules,
                "check.states": sum(o.states for o in output)}

    def check(self, output) -> PassCheck:
        result = PassCheck(attempted=len(output))
        for o in output:
            bad = []
            if not o.completed:
                bad.append(f"{o.world}: exploration did not complete")
            if o.violations:
                bad.append(f"{o.world}: {o.violations} invariant violation(s)")
            if bad:
                result.fail(*bad)
        counts = [(o.world, o.schedules, o.states) for o in output]
        if self.reference is None:
            self.reference = counts
        elif counts != self.reference:
            result.fail(
                f"schedule/state counts {counts} differ from the first "
                f"pass {self.reference}"
            )
        return result


WORKLOADS = {
    cls.name: cls for cls in (SweepBulk, SweepTable1, SweepWarm, CheckExplore)
}
