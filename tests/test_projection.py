import math

import numpy as np
import pytest

from tcmr import projection as pj


def finite_diff_param_grads(half, x, direction, eps=1e-5):
    """Central-difference gradient of L = direction . forward(x) per parameter."""

    def loss():
        y, _ = half.forward(x)
        return float((y * direction).sum())

    grads = []
    for p in half.params():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            up = loss()
            p[idx] = orig - eps
            down = loss()
            p[idx] = orig
            g[idx] = (up - down) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(1e-8, np.abs(b))


class TestForward:
    def test_scalar_hand_value(self):
        half = pj.ProjectionHalf(W1=[[1.0]], b1=[0.0], W2=[[1.0]], b2=[0.0])
        y, (_, _, pre_norm, _, _) = half.forward([[0.5]])
        assert pre_norm[0, 0] == pytest.approx(math.tanh(math.tanh(0.5)), abs=1e-12)
        assert pre_norm[0, 0] == pytest.approx(0.43181, abs=5e-5)
        assert y[0, 0] == pytest.approx(1.0)

    def test_all_zero_weights_degenerate(self):
        half = pj.ProjectionHalf(
            W1=np.zeros((3, 2)), b1=np.zeros(3), W2=np.zeros((2, 3)), b2=np.zeros(2)
        )
        with pytest.raises(pj.DegenerateProjectionError):
            half.forward([[1.0, 2.0]])

    def test_output_unit_norm(self):
        rng = np.random.default_rng(0)
        half = pj.ProjectionHalf.initialize(5, 7, 3, rng)
        y, _ = half.forward(rng.normal(size=(10, 5)))
        np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-9)

    def test_equals_the_expression_bit_for_bit(self):
        """The in-place bias and tanh make the same bits as the out-of-place expression."""
        rng = np.random.default_rng(2)
        half = pj.ProjectionHalf(W1=rng.normal(size=(7, 5)), b1=rng.normal(size=7),
                                 W2=rng.normal(size=(3, 7)), b2=rng.normal(size=3))
        x = rng.normal(size=(40, 5))
        y = np.tanh(np.tanh(x @ half.W1.T + half.b1) @ half.W2.T + half.b2)
        got, (_, h, pre_norm, _, _) = half.forward(x)
        assert np.array_equal(h, np.tanh(x @ half.W1.T + half.b1))
        assert np.array_equal(pre_norm, y)
        assert np.array_equal(got, y / np.linalg.norm(y, axis=1, keepdims=True))

    def test_dimension_check(self):
        half = pj.ProjectionHalf.initialize(4, 3, 2, np.random.default_rng(1))
        with pytest.raises(ValueError, match="dimension"):
            half.forward(np.ones((2, 5)))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(2)
        half = pj.ProjectionHalf.initialize(4, 6, 3, rng)
        y, cache = half.forward(rng.normal(size=(5, 4)))
        grads, dx = half.backward(cache, np.zeros_like(y))
        for g in grads:
            assert not g.any()
        assert not dx.any()

    def test_upstream_parallel_to_output_annihilated(self):
        rng = np.random.default_rng(3)
        half = pj.ProjectionHalf.initialize(4, 6, 3, rng)
        y, cache = half.forward(rng.normal(size=(1, 4)))
        grads, dx = half.backward(cache, 2.5 * y)
        for g in grads:
            np.testing.assert_allclose(g, 0.0, atol=1e-12)
        np.testing.assert_allclose(dx, 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_param_grads_match_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        half = pj.ProjectionHalf.initialize(4, 5, 3, rng)
        x = rng.normal(size=(1, 4))
        direction = rng.normal(size=3)
        y, cache = half.forward(x)
        analytic, _ = half.backward(cache, direction[None, :])
        numeric = finite_diff_param_grads(half, x, direction)
        for a, n in zip(analytic, numeric, strict=True):
            mask = np.abs(n) > 1e-10
            if mask.any():
                assert rel_err(a[mask], n[mask]).max() < 1e-4
            np.testing.assert_allclose(a[~mask], n[~mask], atol=1e-7)

    def test_input_grad_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        half = pj.ProjectionHalf.initialize(4, 5, 3, rng)
        x = rng.normal(size=(1, 4))
        direction = rng.normal(size=3)
        _, cache = half.forward(x)
        _, dx = half.backward(cache, direction[None, :])
        eps = 1e-6
        numeric = np.zeros(4)
        for i in range(4):
            for sign in (1, -1):
                xp = x.copy()
                xp[0, i] += sign * eps
                yp, _ = half.forward(xp)
                numeric[i] += sign * float((yp * direction).sum())
            numeric[i] /= 2 * eps
        assert rel_err(dx[0], numeric).max() < 1e-4


class TestSgd:
    def _scalar_model(self, theta=0.0):
        # 1x1 nets so every parameter tensor is a scalar we can follow
        def half():
            return pj.ProjectionHalf(W1=[[theta]], b1=[0.0], W2=[[0.0]], b2=[0.0])

        return pj.ProjectionModel(image_net=half(), text_net=half())

    @staticmethod
    def _unit_grads(value):
        half = [np.array([[value]]), np.zeros(1), np.zeros((1, 1)), np.zeros(1)]
        return half + [g.copy() for g in half]

    def test_single_step_no_momentum(self):
        model = self._scalar_model()
        opt = pj.SgdMomentum(eta=0.1, momentum=0.0, decay=0.0)
        opt.step(model, self._unit_grads(1.0), batch_size=1)
        assert model.image_net.W1[0, 0] == pytest.approx(-0.1)

    def test_zero_grad_is_fixed_point(self):
        model = self._scalar_model(theta=0.7)
        opt = pj.SgdMomentum(eta=0.5, momentum=0.9, decay=0.0)
        opt.step(model, self._unit_grads(0.0), batch_size=1)
        assert model.image_net.W1[0, 0] == 0.7

    def test_two_momentum_steps(self):
        model = self._scalar_model()
        opt = pj.SgdMomentum(eta=1.0, momentum=0.9, decay=0.0)
        opt.step(model, self._unit_grads(1.0), batch_size=1)
        assert model.image_net.W1[0, 0] == pytest.approx(-1.0)
        opt.step(model, self._unit_grads(1.0), batch_size=1)
        assert model.image_net.W1[0, 0] == pytest.approx(-2.9)

    def test_batch_size_scaling(self):
        model = self._scalar_model()
        opt = pj.SgdMomentum(eta=1.0, momentum=0.0, decay=0.0)
        opt.step(model, self._unit_grads(1.0), batch_size=4)
        assert model.image_net.W1[0, 0] == pytest.approx(-0.25)

    def test_decay_schedule(self):
        opt = pj.SgdMomentum(eta=1.0, momentum=0.0, decay=0.5)
        model = self._scalar_model()
        opt.step(model, self._unit_grads(0.0), batch_size=1)
        assert opt.eta == pytest.approx(1.0 / 1.5)
        opt.step(model, self._unit_grads(0.0), batch_size=1)
        assert opt.eta == pytest.approx(1.0 / 1.5 / 2.0)
        assert opt.eta > 0

    def test_every_tensor_moves_by_its_own_gradient(self):
        model = pj.ProjectionModel.initialize(3, 4, 5, 2, seed=0)
        before = [p.copy() for p in model.params()]
        rng = np.random.default_rng(1)
        grads = [rng.normal(size=p.shape) for p in before]
        opt = pj.SgdMomentum(eta=0.5, momentum=0.9, decay=0.0)
        opt.step(model, grads, batch_size=4)
        for name, p, p0, g in zip(pj.TENSOR_NAMES, model.params(), before, grads, strict=True):
            np.testing.assert_array_equal(p, p0 + (-(0.5 / 4) * g), err_msg=name)

    @pytest.mark.parametrize("tensor, name", [(0, "image.W1"), (7, "text.b2")],
                             ids=["image.W1", "text.b2"])
    def test_non_finite_gradient_aborts(self, tensor, name):
        model = self._scalar_model()
        before = [p.copy() for p in model.params()]
        grads = self._unit_grads(1.0)
        grads[tensor] = np.full_like(grads[tensor], np.nan)
        opt = pj.SgdMomentum(eta=0.1, momentum=0.9, decay=0.0)
        with pytest.raises(pj.NonFiniteGradientError, match=f"non-finite gradient in {name}$"):
            opt.step(model, grads, batch_size=1)
        for p, p0 in zip(model.params(), before, strict=True):
            np.testing.assert_array_equal(p, p0)

    def test_short_gradient_list_raises(self):
        model = self._scalar_model()
        opt = pj.SgdMomentum(eta=0.1, momentum=0.9, decay=0.0)
        with pytest.raises(ValueError, match="zip"):
            opt.step(model, self._unit_grads(1.0)[:4], batch_size=1)
        assert model.text_net.W1[0, 0] == 0.0 and model.image_net.W1[0, 0] == 0.0


class TestModel:
    def test_seeded_init_is_bit_identical(self):
        a = pj.ProjectionModel.initialize(5, 7, 4, 3, seed=42)
        b = pj.ProjectionModel.initialize(5, 7, 4, 3, seed=42)
        for pa, pb in zip(a.params(), b.params(), strict=True):
            np.testing.assert_array_equal(pa, pb)

    def test_checkpoint_round_trip(self, tmp_path):
        model = pj.ProjectionModel.initialize(5, 7, 4, 3, seed=1)
        path = tmp_path / "model.txnm"
        pj.save_checkpoint(path, model, config={"eta": 0.005}, seed=1)
        loaded, config, seed = pj.load_checkpoint(path)
        assert config == {"eta": 0.005}
        assert seed == 1
        for pa, pb in zip(loaded.params(), model.params(), strict=True):
            np.testing.assert_array_equal(pa, pb)

    def test_copy_is_independent(self):
        model = pj.ProjectionModel.initialize(3, 4, 2, 2, seed=0)
        clone = model.copy()
        clone.image_net.W1 += 1.0
        assert not np.array_equal(clone.image_net.W1, model.image_net.W1)
