"""Tests for the arithmetic-operation cost models (paper Table 3 / Table 11)."""

import pytest

from repro.core.cost import CostModel, Operator, OperatorCost, asymptotic_speedup

# TR = 10, FR = 2: well inside the factorization-wins region.
N_S, D_S, N_R, D_R = 10_000, 20, 1_000, 40
D = D_S + D_R


def single_join(n_s=N_S, d_s=D_S, n_r=N_R, d_r=D_R) -> CostModel:
    """The paper's two-table form: one attribute table (q = 1)."""
    return CostModel(n_s, d_s, [(n_r, d_r)])


@pytest.fixture
def model() -> CostModel:
    return single_join()


class TestTableThreeFormulas:
    def test_scalar_standard(self, model):
        assert model.cost(Operator.SCALAR).standard == N_S * D

    def test_scalar_factorized(self, model):
        assert model.cost(Operator.SCALAR).factorized == N_S * D_S + N_R * D_R

    def test_lmm_scales_with_operand_width(self, model):
        assert model.cost(Operator.LMM, 3).standard == 3 * model.cost(Operator.LMM, 1).standard
        assert model.cost(Operator.LMM, 3).factorized == 3 * model.cost(Operator.LMM, 1).factorized

    def test_rmm_matches_lmm_structure(self, model):
        assert model.cost(Operator.RMM, 2).standard == model.cost(Operator.LMM, 2).standard

    def test_crossprod_standard(self, model):
        assert model.cost(Operator.CROSSPROD).standard == 0.5 * D ** 2 * N_S

    def test_crossprod_factorized(self, model):
        expected = 0.5 * D_S ** 2 * N_S + 0.5 * D_R ** 2 * N_R + D_S * D_R * N_R
        assert model.cost(Operator.CROSSPROD).factorized == expected

    def test_pseudoinverse_positive(self, model):
        cost = model.cost(Operator.PSEUDOINVERSE)
        assert cost.standard == 7 * N_S * D * D + 20 * D ** 3
        assert cost.factorized > 0

    def test_pseudoinverse_wide_branch(self):
        n_s, d_s, n_r, d_r = 50, 40, 10, 30
        d = d_s + d_r
        cost = single_join(n_s, d_s, n_r, d_r).cost(Operator.PSEUDOINVERSE)
        assert cost.standard == 7 * n_s * n_s * d + 20 * n_s ** 3
        assert cost.factorized == (27 * n_s ** 3 + 0.5 * n_s * n_s * d_s
                                   + 0.5 * n_r * n_r * d_r
                                   + n_s * (n_s * d_s + n_r * d_r))

    def test_unknown_operator_combination(self, model):
        with pytest.raises(ValueError):
            model.cost("not an operator")  # type: ignore[arg-type]


class TestSpeedupPredictions:
    def test_factorized_cheaper_in_redundant_region(self, model):
        for operator in (Operator.SCALAR, Operator.LMM, Operator.RMM, Operator.CROSSPROD):
            assert model.cost(operator).speedup > 1.0

    def test_factorized_not_cheaper_without_redundancy(self):
        cost = single_join(n_s=100, d_s=40, n_r=100, d_r=2).cost(Operator.SCALAR)  # TR=1, FR=0.05
        assert cost.speedup <= 1.05

    def test_speedup_monotone_in_tuple_ratio(self):
        speedups = [single_join(n_s=n_s).cost(Operator.SCALAR).speedup
                    for n_s in (1_000, 5_000, 20_000)]
        assert speedups == sorted(speedups)

    def test_speedup_monotone_in_feature_ratio(self):
        speedups = [single_join(n_s=20_000, d_r=d_r).cost(Operator.LMM).speedup
                    for d_r in (10, 40, 160)]
        assert speedups == sorted(speedups)

    def test_crossprod_speedup_larger_than_linear_ops(self, model):
        assert model.cost(Operator.CROSSPROD).speedup > model.cost(Operator.LMM).speedup

    def test_zero_factorized_cost_gives_infinite_speedup(self):
        assert OperatorCost(Operator.SCALAR, 10.0, 0.0).speedup == float("inf")


class TestAsymptoticSpeedups:
    def test_linear_operators_approach_one_plus_fr(self):
        speedup = asymptotic_speedup(Operator.LMM, tuple_ratio=1e9, feature_ratio=3.0)
        assert speedup == pytest.approx(4.0, rel=1e-6)

    def test_linear_operators_approach_tr(self):
        speedup = asymptotic_speedup(Operator.SCALAR, tuple_ratio=12.0, feature_ratio=1e9)
        assert speedup == pytest.approx(12.0, rel=1e-3)

    def test_crossprod_approaches_squared_limit(self):
        speedup = asymptotic_speedup(Operator.CROSSPROD, tuple_ratio=1e9, feature_ratio=3.0)
        assert speedup == pytest.approx(16.0, rel=1e-6)


class TestCostModelClass:
    def test_multi_join_costs_add(self):
        model = CostModel(10_000, 20, [(1_000, 40), (500, 10)])
        assert model.total_features == 70
        assert model.scalar().factorized == 10_000 * 20 + 1_000 * 40 + 500 * 10

    def test_dict_input_accepted(self):
        model = CostModel(100, 5, {"r1": (10, 3), "r2": (20, 4)})
        assert model.total_features == 12

    def test_summary_keys(self, model):
        assert set(model.summary()) == {"scalar", "lmm", "rmm", "crossprod"}

    def test_lmm_rmm_scale_with_operand(self, model):
        assert model.lmm(4).standard == 4 * model.lmm(1).standard
        assert model.rmm(4).factorized == 4 * model.rmm(1).factorized
