"""The paper's evaluation *shape*, asserted.

Each test pins the qualitative claim of a table/figure: who wins, by
roughly what factor, where the sensitivity lies.  Absolute numbers are
the cost model's business; these bands are what reproduction means.
"""

import pytest

from repro.harness import experiments as ex
from repro.harness.env import CovirtEnvironment
from repro.harness.report import overhead_pct

LAYOUTS = {"1c/1n", "4c/2n", "4c/1n", "8c/2n"}


def overhead_pcts(rows) -> list[float]:
    return [100 * overhead for overhead in ex.overheads(rows)]


def by_config(rows) -> dict[str, float]:
    return dict(zip((row["config"] for row in rows), overhead_pcts(rows)))


def fom(rows, **match) -> float:
    (value,) = [
        row["fom"]
        for row in rows
        if all(row[key] == want for key, want in match.items())
    ]
    return value


class TestTable1:
    def test_all_six_benchmarks_present(self):
        result = ex.run_table1()
        names = result.column("Benchmark Name")
        assert names == [
            "Selfish Detour",
            "STREAM",
            "RandomAccess_OMP",
            "HPCG",
            "MiniFE",
            "LAMMPS-lj",
        ]

    def test_paper_parameters(self):
        result = ex.run_table1()
        params = dict(zip(result.column("Benchmark Name"), result.column("Parameters")))
        assert params["RandomAccess_OMP"] == "25"
        assert params["HPCG"] == "104 104 104 330"
        assert params["MiniFE"] == "nx 250 ny 250 nz 250"

    def test_renders(self):
        assert "Benchmark Name" in ex.run_table1().render()


class TestFig3:
    @pytest.fixture(scope="class")
    def rows(self):
        return ex.fig3(CovirtEnvironment())

    def test_four_configs(self, rows):
        assert [row["config"] for row in rows] == [
            "native",
            "covirt-none",
            "covirt-mem",
            "covirt-mem+ipi",
        ]

    def test_detour_counts_identical(self, rows):
        """Virtualization adds no noise *events* — the paper's headline
        Fig. 3 observation."""
        counts = {row["detours"] for row in rows}
        assert len(counts) == 1

    def test_noise_fraction_tiny_everywhere(self, rows):
        for row in rows:
            assert row["noise_fraction"] * 100 < 0.01

    def test_max_detour_bounded_by_exit_cost(self, rows):
        durations = [row["max_detour_us"] for row in rows]
        assert max(durations) - min(durations) < 2.0  # microseconds


class TestFig4:
    @pytest.fixture(scope="class")
    def rows(self):
        return ex.fig4(CovirtEnvironment())

    @pytest.fixture(scope="class")
    def deltas(self, rows):
        """Covirt-on vs covirt-off attach delta (%) per region size,
        smallest region first."""
        latency = {(row["mode"], row["region_mb"]): row["attach_us"] for row in rows}
        sizes = sorted({row["region_mb"] for row in rows})
        return [
            overhead_pct(latency["covirt-on", size], latency["covirt-off", size])
            for size in sizes
        ]

    def test_every_size_in_both_modes(self, rows):
        assert len(rows) == 12
        assert [row["region_mb"] for row in rows if row["mode"] == "covirt-on"] == [
            1, 4, 16, 64, 256, 1024,
        ]

    def test_latency_grows_with_size(self, rows):
        lat = [row["attach_us"] for row in rows if row["mode"] == "covirt-off"]
        assert lat == sorted(lat)

    def test_covirt_overhead_negligible(self, deltas):
        """'Covirt imposes little to no overhead for this range.'"""
        for delta in deltas:
            assert delta < 5.0

    def test_overhead_shrinks_with_size(self, deltas):
        assert deltas[-1] < deltas[0]
        assert deltas[-1] < 1.0


class TestFig5:
    @pytest.fixture(scope="class")
    def stream(self):
        return ex.fig5a(CovirtEnvironment())

    @pytest.fixture(scope="class")
    def randomaccess(self):
        return ex.fig5b(CovirtEnvironment())

    def test_every_config_once(self, stream, randomaccess):
        assert len(stream) == len(randomaccess) == 4

    def test_stream_no_noticeable_overhead(self, stream):
        for overhead in overhead_pcts(stream):
            assert overhead < 0.5

    def test_randomaccess_bands_match_paper(self, randomaccess):
        overheads = by_config(randomaccess)
        # Paper: 1.8 % with memory protection, 3.1 % worst case.
        assert 1.0 < overheads["covirt-mem"] < 2.5
        assert 2.5 < overheads["covirt-mem+ipi"] < 4.0
        assert overheads["covirt-none"] < 0.5

    def test_randomaccess_worst_case_is_mem_ipi(self, randomaccess):
        overheads = overhead_pcts(randomaccess)
        assert max(overheads) == overheads[-1]


class TestFig6And7:
    @pytest.fixture(scope="class")
    def minife(self):
        return ex.fig6(CovirtEnvironment())

    @pytest.fixture(scope="class")
    def hpcg(self):
        return ex.fig7(CovirtEnvironment())

    def test_all_layouts_swept(self, minife, hpcg):
        assert {row["layout"] for row in minife} == LAYOUTS
        assert len(minife) == len(hpcg) == 16  # 4 layouts x 4 configs

    def test_minife_no_noticeable_overhead(self, minife):
        for overhead in overhead_pcts(minife):
            assert overhead < 0.75

    def test_hpcg_worst_case_band(self, hpcg):
        overheads = overhead_pcts(hpcg)
        assert max(overheads) < 2.0  # paper: 1.4 % worst case
        assert max(overheads) > 0.8

    def test_hpcg_penalty_consistent_across_configs(self, hpcg):
        """Paper: a baseline penalty that stays roughly constant
        regardless of feature configuration."""
        for layout in LAYOUTS:
            covirt = [
                overhead
                for row, overhead in zip(hpcg, overhead_pcts(hpcg))
                if row["layout"] == layout and row["config"] != "native"
            ]
            assert max(covirt) - min(covirt) < 1.2

    def test_scaling_improves_fom(self, hpcg):
        assert (
            fom(hpcg, layout="8c/2n", config="native")
            > fom(hpcg, layout="4c/2n", config="native")
            > fom(hpcg, layout="1c/1n", config="native")
        )

    def test_numa_split_beats_packed(self, hpcg):
        assert fom(hpcg, layout="4c/2n", config="native") > fom(
            hpcg, layout="4c/1n", config="native"
        )


class TestFig8:
    PROBLEMS = ("LAMMPS-lj", "LAMMPS-eam", "LAMMPS-chain", "LAMMPS-chute")

    @pytest.fixture(scope="class")
    def rows(self):
        return ex.fig8(CovirtEnvironment())

    @pytest.fixture(scope="class")
    def worst(self, rows):
        return {
            problem: max(
                overhead
                for row, overhead in zip(rows, overhead_pcts(rows))
                if row["workload"] == problem
            )
            for problem in self.PROBLEMS
        }

    def test_all_problems_swept(self, rows):
        assert {row["workload"] for row in rows} == set(self.PROBLEMS)
        assert len(rows) == 16  # 4 problems x 4 configs

    def test_lj_eam_chain_similar_across_configs(self, worst):
        for problem in ("LAMMPS-lj", "LAMMPS-eam", "LAMMPS-chain"):
            assert worst[problem] < 2.0

    def test_chute_most_sensitive(self, worst):
        assert worst["LAMMPS-chute"] > max(
            worst["LAMMPS-lj"], worst["LAMMPS-eam"], worst["LAMMPS-chain"]
        )
        assert worst["LAMMPS-chute"] < 8.0  # still "minimal overheads"

    def test_native_and_none_best_for_chute(self, rows):
        chute = {
            row["config"]: row["fom"]
            for row in rows
            if row["workload"] == "LAMMPS-chute"
        }
        assert chute["native"] <= chute["covirt-mem"]
        assert chute["covirt-none"] <= chute["covirt-mem"]
        assert chute["covirt-mem"] <= chute["covirt-mem+ipi"]


class TestOverheads:
    def test_each_row_against_its_own_native_row(self):
        rows = [
            dict(zip(("workload", "layout", "config", "elapsed_cycles"), row))
            for row in [
                ("A", "1c", "native", 100),
                ("A", "1c", "covirt-mem", 103),
                ("A", "4c", "native", 50),
                ("A", "4c", "covirt-mem", 51),
                ("B", "1c", "native", 200),
                ("B", "1c", "covirt-none", 202),
            ]
        ]
        assert ex.overheads(rows) == pytest.approx([0.0, 0.03, 0.0, 0.02, 0.0, 0.01])


class TestFromRows:
    def test_one_column_per_key_plus_overhead(self):
        rows = ex.fig5b(CovirtEnvironment(), quick=True)
        result = ex.ExperimentResult.from_rows("Fig. 5b", rows)
        assert result.headers == [*rows[0], "overhead"]
        assert result.column("config") == ["native", "covirt-mem+ipi"]
        assert result.column("overhead")[0] == "+0.00%"
        assert "Fig. 5b" in result.render()

    def test_rows_without_cycles_get_no_overhead(self):
        rows = [{"region_mb": 1, "mode": "covirt-off", "attach_us": 7.3}]
        result = ex.ExperimentResult.from_rows("Fig. 4", rows)
        assert result.headers == ["region_mb", "mode", "attach_us"]
        assert result.rows == [[1, "covirt-off", 7.3]]
