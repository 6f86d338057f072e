"""Cost model: task costs, length scaling, heterogeneity factors."""

from __future__ import annotations

import pytest

from repro.cluster.costmodel import CostModel, lognormal_speed_factors


class TestCostModel:
    def test_map_task_cost_components(self):
        model = CostModel(
            map_task_startup=1.0,
            map_cost_per_record=0.1,
            map_cost_per_output_kv=0.01,
        )
        assert model.map_task_cost(10, 100) == pytest.approx(1.0 + 1.0 + 1.0)

    def test_reduce_task_cost_components(self):
        model = CostModel(
            reduce_task_startup=1.0,
            shuffle_cost_per_kv=0.05,
            reduce_cost_per_input_kv=0.05,
            comparison_cost=0.001,
        )
        assert model.reduce_task_cost(10, 1000) == pytest.approx(1.0 + 1.0 + 1.0)

    def test_comparison_cost_scales_quadratically_with_length(self):
        model = CostModel(comparison_cost=1.0, reference_comparison_length=10)
        assert model.comparison_cost_for_length(20) == pytest.approx(4.0)
        assert model.comparison_cost_for_length(None) == 1.0

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            CostModel().comparison_cost_for_length(0)

    def test_negative_constants_rejected(self):
        with pytest.raises(ValueError):
            CostModel(comparison_cost=-1.0)

    def test_scaled_preserves_fixed_overheads(self):
        model = CostModel()
        fast = model.scaled(0.5)
        assert fast.job_setup_time == model.job_setup_time
        assert fast.comparison_cost == pytest.approx(model.comparison_cost * 0.5)
        with pytest.raises(ValueError):
            model.scaled(0)

    def test_bdm_job_calibration_anchor(self):
        """Job 1 on DS1 (m=20, r=100, 10 nodes) lands near the paper's 35 s."""
        from repro.analysis import bdm_for_block_sizes
        from repro.cluster.simulation import ClusterSimulator, ClusterSpec
        from repro.core.planning import plan_bdm_job
        from repro.engine import simulate_planned_workflow
        from repro.core.planning import plan_blocksplit
        from repro.datasets import zipf_block_sizes

        sizes = zipf_block_sizes(114_000, 2_800, 1.2)
        bdm = bdm_for_block_sizes(sizes, 20, seed=13)
        plan = plan_blocksplit(bdm, 100)
        bdm_plan = plan_bdm_job(bdm, 100)
        timeline = simulate_planned_workflow(
            plan, ClusterSpec(10), bdm_plan=bdm_plan
        )
        job1 = timeline.jobs[0].execution_time
        assert 25 <= job1 <= 45


class TestSpeedFactors:
    def test_sigma_zero_is_homogeneous(self):
        assert lognormal_speed_factors(5, 0.0) == [1.0] * 5

    def test_deterministic_per_seed(self):
        assert lognormal_speed_factors(8, 0.3, seed=1) == lognormal_speed_factors(
            8, 0.3, seed=1
        )
        assert lognormal_speed_factors(8, 0.3, seed=1) != lognormal_speed_factors(
            8, 0.3, seed=2
        )

    def test_all_positive(self):
        assert all(f > 0 for f in lognormal_speed_factors(100, 0.5))

    def test_median_near_one(self):
        factors = sorted(lognormal_speed_factors(1001, 0.3))
        assert 0.7 < factors[500] < 1.4

    def test_validation(self):
        with pytest.raises(ValueError):
            lognormal_speed_factors(0, 0.1)
        with pytest.raises(ValueError):
            lognormal_speed_factors(5, -0.1)
