"""Tests for the experiment drivers (Table-1 runner and sweeps)."""

import pytest

from repro.core.flooding import Flooding
from repro.errors import ReproError
from repro.experiments.sweeps import (
    dense_er_all_awake,
    er_fraction_wake,
    er_single_wake,
    grid_corner_wake,
    parallel_sweep,
    sweep,
    sweep_cells,
    tree_random_wake,
)
from repro.experiments.table1 import (
    measure_table1,
    render_table1,
    workload_context,
)
from repro.models.knowledge import Knowledge


class TestSweep:
    def test_flooding_sweep_shape(self):
        rows = sweep(
            Flooding,
            er_single_wake(avg_degree=4.0, seed=1),
            sizes=[20, 40],
            knowledge=Knowledge.KT0,
            trials=2,
            seed=3,
        )
        assert [r.n for r in rows] == [20, 40]
        assert all(r.messages > 0 for r in rows)
        assert rows[1].messages > rows[0].messages
        assert all(r.trials == 2 for r in rows)

    def test_sweep_records_rho(self):
        rows = sweep(
            Flooding,
            grid_corner_wake(),
            sizes=[16, 36],
            knowledge=Knowledge.KT0,
            trials=1,
        )
        # corner wake on a side x side grid: rho = 2 (side - 1)
        assert rows[0].rho_awk == 6
        assert rows[1].rho_awk == 10

    def test_sweep_row_dict(self):
        rows = sweep(
            Flooding,
            tree_random_wake(seed=2),
            sizes=[15],
            knowledge=Knowledge.KT0,
            trials=1,
        )
        d = rows[0].as_dict()
        assert {"n", "rho", "messages", "time"} <= set(d)

    def test_workloads_produce_connected_graphs(self):
        from repro.graphs.traversal import is_connected

        for workload in (
            er_single_wake(seed=1),
            er_fraction_wake(seed=2),
            dense_er_all_awake(seed=3),
            grid_corner_wake(),
            tree_random_wake(seed=4),
        ):
            g, awake = workload(30)
            assert is_connected(g)
            assert awake
            assert all(v in g for v in awake)


class TestBadWorkloadSpecs:
    """A bad workload spec raises before any cell runs, instead of
    coming back as an empty row list plus one failed cell per trial."""

    def test_unknown_kind_raises(self):
        with pytest.raises(ReproError, match="unknown workload kind 'nope'"):
            parallel_sweep("flooding", {"kind": "nope"}, [16])
        with pytest.raises(ReproError, match="unknown workload kind"):
            sweep_cells("flooding", {"avg_degree": 4.0}, [16])

    def test_bad_kwargs_raise(self):
        with pytest.raises(ReproError, match="er_single_wake"):
            parallel_sweep(
                "flooding", {"kind": "er_single_wake", "degree": 4.0}, [16]
            )

    WORKLOAD = {"kind": "er_single_wake", "avg_degree": 4.0}

    @pytest.mark.parametrize(
        "name",
        [
            "nope",
            "tests.test_experiments:NoSuchAlgo",
            "no_such_module:Flooding",
        ],
    )
    def test_unknown_algorithm_raises(self, name):
        with pytest.raises(ReproError, match="unknown algorithm"):
            sweep_cells(name, self.WORKLOAD, [16])
        with pytest.raises(ReproError, match="unknown algorithm"):
            parallel_sweep(name, self.WORKLOAD, [16])

    @pytest.mark.parametrize("sizes", [[], [1], [16.5], [16, 1]])
    def test_bad_sizes_raise(self, sizes):
        with pytest.raises(ReproError, match="sizes"):
            sweep_cells("flooding", self.WORKLOAD, sizes)
        with pytest.raises(ReproError, match="sizes"):
            parallel_sweep("flooding", self.WORKLOAD, sizes)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_bad_trials_raise(self, trials):
        with pytest.raises(ReproError, match="trials"):
            sweep_cells("flooding", self.WORKLOAD, [16], trials=trials)

    def test_module_attr_name_builds_cells(self):
        cells = sweep_cells(
            "repro.core.flooding:Flooding", self.WORKLOAD, [16, 24],
            trials=2,
        )
        assert [(c.algorithm, c.n, c.trial) for c in cells] == [
            ("repro.core.flooding:Flooding", n, t)
            for n in (16, 24) for t in range(2)
        ]


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return measure_table1(n=60, avg_degree=6.0, seed=2)

    def test_all_rows_present(self, rows):
        labels = [r.row for r in rows]
        assert labels == [
            "Thm 3", "Thm 4", "Cor 1", "Thm 5A", "Thm 5B", "Thm 6",
            "Cor 2", "baseline",
        ]

    def test_all_rows_completed(self, rows):
        assert all(r.messages > 0 for r in rows)
        assert all(r.time > 0 for r in rows)

    def test_advice_rows_have_advice(self, rows):
        by_label = {r.row: r for r in rows}
        for label in ("Cor 1", "Thm 5A", "Thm 5B", "Thm 6", "Cor 2"):
            assert by_label[label].advice_max_bits > 0
        for label in ("Thm 3", "Thm 4", "baseline"):
            assert by_label[label].advice_max_bits == 0

    def test_who_wins_orderings(self, rows):
        """The qualitative Table-1 story on a shared workload."""
        by_label = {r.row: r for r in rows}
        # Advice schemes with O(n) message bounds beat flooding:
        assert by_label["Cor 1"].messages < by_label["baseline"].messages
        assert by_label["Thm 5B"].messages < by_label["baseline"].messages
        # Flooding is the fastest (time-optimal baseline):
        assert by_label["baseline"].time <= min(
            by_label["Thm 3"].time, by_label["Thm 5B"].time
        )
        # Thm 5B trades time for advice against Cor 1:
        assert (
            by_label["Thm 5B"].advice_max_bits
            < by_label["Cor 1"].advice_max_bits + 64
        )

    def test_render(self, rows):
        text = render_table1(rows)
        assert "Thm 3" in text and "paper_msgs" in text

    def test_workload_context(self):
        ctx = workload_context(n=60, seed=2)
        assert ctx["n"] == 60
        assert ctx["rho_awk"] >= 1
        assert ctx["diameter"] >= ctx["rho_awk"]
