import weakref

import numpy as np
import pytest

from conformer import numerics as nm
from conformer.conditioning import (ConditionFactors, _normalize_rows,
                                    expanded_score_identity, expanded_score_terms,
                                    generate_factors, gln, modulated_residual)
from conformer.errors import ContractError, DimensionError, NumericsError
from conformer.graph import GraphSpec, normalize_adjacency, propagate
from oracles import mean_std_last_axis


def make_generator(rng, in_width, d_model, zero_head=True):
    params = {
        "g.hidden.w": nm.Tensor(rng.normal(0, 0.3, (in_width, d_model))),
        "g.hidden.b": nm.Tensor(rng.normal(0, 0.3, (d_model,))),
        "g.out.w": nm.Tensor(np.zeros((d_model, 2 * d_model + 1)) if zero_head
                             else rng.normal(0, 0.3, (d_model, 2 * d_model + 1))),
        "g.out.b": nm.Tensor(np.zeros((2 * d_model + 1,)) if zero_head
                             else rng.normal(0, 0.3, (2 * d_model + 1,))),
    }
    return params


def factors(gamma, beta, alpha):
    return ConditionFactors(gamma=nm.Tensor(gamma), beta=nm.Tensor(beta),
                            alpha=nm.Tensor(alpha))


class TestComputeCondition:
    """The condition features x_c are the K-hop propagation of the input."""

    def test_zero_hops_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 4))
        op = normalize_adjacency(GraphSpec(3, ((0, 1, 1.0),)))
        out = propagate(nm.Tensor(x), op, 0)
        assert np.array_equal(out.data, x)

    def test_identity_operator_repeats_blocks(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 4))
        op = normalize_adjacency(GraphSpec(3))
        assert np.array_equal(op, np.eye(3))
        out = propagate(nm.Tensor(x), op, 2).data
        assert np.array_equal(out, np.concatenate([x, x, x], axis=-1))

    def test_matches_power_oracle(self):
        rng = np.random.default_rng(2)
        edges = tuple((i, j, float(rng.uniform(0.1, 1.0)))
                      for i in range(3) for j in range(3)
                      if i != j and rng.random() < 0.6)
        op = normalize_adjacency(GraphSpec(3, edges))
        x = rng.normal(size=(2, 3, 2))
        out = propagate(nm.Tensor(x), op, 2).data
        for j in range(3):
            power = np.linalg.matrix_power(op, j)
            assert np.abs(out[..., 2 * j:2 * j + 2]
                          - np.einsum("uv,tvd->tud", power, x)).max() <= 1e-12


class TestGenerateFactors:
    def test_fresh_params_give_identity_factors(self):
        rng = np.random.default_rng(3)
        gen = make_generator(rng, in_width=6, d_model=4)
        x_c = nm.Tensor(rng.normal(size=(2, 3, 6)))
        f = generate_factors(x_c, gen, "g")
        assert np.array_equal(f.alpha.data, np.zeros((2, 3, 1)))
        assert np.array_equal(f.gamma.data, np.ones((2, 3, 4)))
        assert np.array_equal(f.beta.data, np.zeros((2, 3, 4)))

    def test_hand_computed_small_case(self):
        d = 2
        params = {
            "g.hidden.w": nm.Tensor([[1.0, 0.0], [0.0, 1.0]]),
            "g.hidden.b": nm.Tensor([0.0, 0.0]),
            "g.out.w": nm.Tensor(np.full((d, 2 * d + 1), 0.5)),
            "g.out.b": nm.Tensor([0.1, 0.2, 0.3, 0.4, 0.5]),
        }
        x_c = nm.Tensor([[[2.0, 4.0]]])
        # hidden = gelu([2, 4]); raw = 0.5*(h0+h1) + bias per channel
        h = nm.gelu(nm.Tensor([2.0, 4.0])).data
        s = 0.5 * h.sum()
        f = generate_factors(x_c, params, "g")
        assert np.allclose(f.gamma.data, [[[1.0 + s + 0.1, 1.0 + s + 0.2]]], atol=1e-12)
        assert np.allclose(f.beta.data, [[[s + 0.3, s + 0.4]]], atol=1e-12)
        assert np.allclose(f.alpha.data, [[[s + 0.5]]], atol=1e-12)

    def test_factor_width_read_from_output_head(self):
        # D comes from out.w's 2*D + 1 columns, not from the hidden width
        rng = np.random.default_rng(5)
        params = {"g.hidden.w": nm.Tensor(rng.normal(size=(6, 3))),
                  "g.hidden.b": nm.Tensor(np.zeros(3)),
                  "g.out.w": nm.Tensor(rng.normal(size=(3, 5))),
                  "g.out.b": nm.Tensor(np.zeros(5))}
        f = generate_factors(nm.Tensor(rng.normal(size=(2, 6))), params, "g")
        assert (f.gamma.shape, f.beta.shape, f.alpha.shape) == ((2, 2), (2, 2), (2, 1))

    def test_generator_output_freed_once_factors_exist(self, monkeypatch):
        # The factors own their arrays, so the [.., 2D + 1] output of the
        # generator's head, read by no VJP, dies with generate_factors.
        rng = np.random.default_rng(6)
        gen = make_generator(rng, in_width=6, d_model=4, zero_head=False)
        head, outputs = nm.gelu_affine, []

        def recording_head(*args):
            out = head(*args)
            outputs.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(nm, "gelu_affine", recording_head)
        x_c = nm.Tensor(rng.normal(size=(2, 3, 6)))
        f = generate_factors(x_c, gen, "g")
        assert len(outputs) == 1 and f.alpha.shape == (2, 3, 1)
        assert outputs[0]() is None
        grads = nm.backward(nm.tsum(f.gamma * f.beta * f.alpha), gen)
        assert all(np.abs(g).max() > 0 for g in grads.values())

    def test_width_mismatch(self):
        rng = np.random.default_rng(4)
        gen = make_generator(rng, in_width=6, d_model=4)
        with pytest.raises(DimensionError,
                           match=r"affine: inner dims differ, \(2, 3, 5\) vs \(6, 4\)"):
            generate_factors(nm.Tensor(rng.normal(size=(2, 3, 5))), gen, "g")


class TestGln:
    def test_reduces_to_layer_norm(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4, 6))
        eps = 1e-5
        f = factors(np.ones(6), np.zeros(6), np.zeros((3, 4, 1)))
        out = gln(nm.Tensor(x), f, eps).data
        mu = x.mean(axis=-1, keepdims=True)
        sd = np.sqrt(x.var(axis=-1, keepdims=True) + eps)
        assert np.abs(out - (x - mu) / sd).max() <= 1e-12

    def test_gamma_zero_returns_beta(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2, 4))
        beta = rng.normal(size=4)
        f = factors(np.zeros(4), beta, np.zeros((2, 2, 1)))
        out = gln(nm.Tensor(x), f, 1e-5).data
        assert np.array_equal(out, np.broadcast_to(beta, out.shape))

    def test_hand_example(self):
        f = factors(np.ones(4), np.zeros(4), np.zeros((1, 1, 1)))
        out = gln(nm.Tensor([[[1.0, 2.0, 3.0, 4.0]]]), f, eps=1e-12).data
        assert np.allclose(out.ravel(), [-1.3416, -0.4472, 0.4472, 1.3416], atol=1e-3)

    def test_normalized_moments(self):
        rng = np.random.default_rng(7)
        x = rng.normal(2.0, 3.0, size=(4, 5, 8))
        f = factors(np.ones(8), np.zeros(8), np.zeros((4, 5, 1)))
        out = gln(nm.Tensor(x), f, eps=1e-12).data
        assert np.abs(out.mean(axis=-1)).max() <= 1e-10
        assert np.abs(out.std(axis=-1) - 1.0).max() <= 1e-6


class TestModulatedResidual:
    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 4))
        branch = rng.normal(size=(2, 3, 4))
        out = modulated_residual(nm.Tensor(x), nm.Tensor(branch),
                                 nm.Tensor(np.zeros((2, 3, 1))))
        assert np.array_equal(out.data, x)

    def test_alpha_one_is_plain_residual(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 4))
        branch = rng.normal(size=(2, 3, 4))
        out = modulated_residual(nm.Tensor(x), nm.Tensor(branch),
                                 nm.Tensor(np.ones((2, 3, 1))))
        assert np.allclose(out.data, x + branch, atol=1e-15)

    def test_hand_example(self):
        out = modulated_residual(nm.Tensor([[[2.0]]]), nm.Tensor([[[4.0]]]),
                                 nm.Tensor([[[0.5]]]))
        assert out.data.ravel().tolist() == [4.0]

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            modulated_residual(nm.Tensor(np.zeros((2, 3))),
                               nm.Tensor(np.zeros((3, 2))),
                               nm.Tensor(np.zeros((2, 1))))


class TestExpandedScoreIdentity:
    def test_gamma_one_beta_zero_is_plain_normalized_score(self):
        rng = np.random.default_rng(10)
        q, k = rng.normal(size=(4, 6)), rng.normal(size=(5, 6))
        gamma, beta = np.ones(6), np.zeros(6)
        lhs, rhs = expanded_score_identity(q, k, gamma, beta)
        plain = _normalize_rows(q, 1e-12) @ _normalize_rows(k, 1e-12).T
        assert np.abs(lhs - plain).max() <= 1e-12
        assert np.abs(rhs - plain).max() <= 1e-12

    def test_scalar_binomial_case(self):
        # with a single feature each row normalizes to zero, so both sides
        # collapse to beta^2; the binomial structure (2)(3) = 6 is covered by
        # the decomposed terms with crafted per-side products below
        lhs, rhs = expanded_score_identity([[5.0]], [[9.0]], [1.0], [2.0])
        assert np.allclose(lhs, [[4.0]], atol=1e-10)
        assert np.allclose(rhs, [[4.0]], atol=1e-10)

    def test_random_shapes_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m, mk, d = rng.integers(1, 7), rng.integers(1, 7), rng.integers(2, 9)
            q = rng.normal(size=(m, d))
            k = rng.normal(size=(mk, d))
            gamma = rng.normal(size=d)
            beta = rng.normal(size=d)
            lhs, rhs = expanded_score_identity(q, k, gamma, beta)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_doubling_gamma_quadruples_gamma_term(self):
        rng = np.random.default_rng(12)
        q, k = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
        gamma = rng.normal(size=5)
        beta = rng.normal(size=5)
        t1 = expanded_score_terms(q, k, gamma, beta)[0]
        t2 = expanded_score_terms(q, k, 2.0 * gamma, beta)[0]
        assert np.allclose(t2, 4.0 * t1, atol=1e-12)

    @pytest.mark.parametrize("fn", [expanded_score_identity, expanded_score_terms])
    def test_width_mismatch_is_a_dimension_error(self, fn):
        q = k = np.ones((2, 3))
        with pytest.raises(DimensionError, match="q/k/gamma feature widths differ: 3, 3, 4"):
            fn(q, k, np.ones(4), np.zeros(4))

    @pytest.mark.parametrize("fn", [expanded_score_identity, expanded_score_terms])
    def test_bad_rows_or_eps_are_refused(self, fn):
        with pytest.raises(NumericsError, match="'tensor'"):
            fn(np.array([[np.nan, 1.0]]), np.ones((2, 2)), np.ones(2), np.zeros(2))
        with pytest.raises(DimensionError, match=r"empty feature axis in \(2, 0\)"):
            fn(np.ones((2, 0)), np.ones((2, 0)), np.ones(0), np.zeros(0))
        with pytest.raises(ContractError, match="eps must be > 0, got 0.0"):
            fn(np.ones((2, 2)), np.ones((2, 2)), np.ones(2), np.zeros(2), eps=0.0)


@pytest.mark.parametrize("rows", [1, 3, 17])
@pytest.mark.parametrize("width", [1, 2, 6, 33])
def test_normalize_rows_is_the_taped_composite_bitwise(rows, width):
    """The plain-numpy rows of the score identity keep the op order of the
    taped mean and std that ``nm.gln`` is held to."""
    x = np.random.default_rng(rows * 100 + width).normal(3.0, 2.0, size=(rows, width))
    mean, std = mean_std_last_axis(nm.Tensor(x), 1e-5)
    expected = ((nm.Tensor(x) - mean) / std).data
    assert _normalize_rows(x, 1e-5).tobytes() == expected.tobytes()
