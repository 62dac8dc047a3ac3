"""Optimizer math, schedules, early stopping, splits, and the fit loop."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cxrgen import training
from cxrgen.errors import (ConfigurationError, ContractError, NonFiniteGradientError,
                           TrainingError)
from cxrgen.model import ModelConfig, ReportGenerator
from cxrgen.params import ParameterStore
from cxrgen.tensor import GradientTape, Tensor, active_tape, add, mul, reduce_sum
from cxrgen.training import (ADAM_BETA1, ADAM_BETA2, ADAM_CHUNK, ADAM_EPS,
                             OptimizerState, TrainConfig, adam_step, evaluate_split,
                             fit, lr_at_step, split_dataset)

from helpers import adam_reference


class TestLrSchedule:
    def test_linear_warmup_then_constant(self):
        cfg = TrainConfig(base_lr=3e-4, warmup_steps=500)
        assert lr_at_step(1, cfg) == pytest.approx(3e-4 / 500)
        assert lr_at_step(250, cfg) == pytest.approx(3e-4 / 2)
        assert lr_at_step(500, cfg) == pytest.approx(3e-4)
        assert lr_at_step(501, cfg) == pytest.approx(3e-4)
        assert lr_at_step(10_000, cfg) == pytest.approx(3e-4)

    def test_monotone_through_warmup(self):
        cfg = TrainConfig(base_lr=1e-3, warmup_steps=100)
        values = [lr_at_step(t, cfg) for t in range(1, 151)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_step_must_be_positive(self):
        with pytest.raises(ContractError):
            lr_at_step(0, TrainConfig())


class TestAdam:
    def test_first_step_magnitude(self):
        # single scalar with gradient 1: update is lr * 1 / (1 + eps) ~= lr
        store = ParameterStore(0)
        p = store.zeros("p", (1,))
        params = {"p": p}
        state = OptimizerState.for_parameters(params)
        adam_step(params, {"p": np.array([1.0])}, state, lr=0.1)
        assert p.data[0] == pytest.approx(-0.1, rel=1e-6)

    def test_matches_hand_simulation(self):
        rng = np.random.default_rng(0)
        store = ParameterStore(1)
        p = store.dense("p", (3, 2))
        params = {"p": p}
        state = OptimizerState.for_parameters(params)

        theta = p.data.copy()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        for t in range(1, 6):
            g = rng.standard_normal(theta.shape)
            adam_step(params, {"p": g}, state, lr=0.01)
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            mhat = m / (1 - ADAM_BETA1 ** t)
            vhat = v / (1 - ADAM_BETA2 ** t)
            theta = theta - 0.01 * mhat / (np.sqrt(vhat) + ADAM_EPS)
            np.testing.assert_allclose(p.data, theta, atol=1e-15)

    def test_nan_gradient_names_parameter(self):
        store = ParameterStore(2)
        p = store.zeros("encoder.scalars.w", (2,))
        params = {"encoder.scalars.w": p}
        state = OptimizerState.for_parameters(params)
        with pytest.raises(TrainingError, match="encoder.scalars.w"):
            adam_step(params, {"encoder.scalars.w": np.array([1.0, np.nan])}, state, 0.1)

    @settings(max_examples=40, deadline=None)
    @given(n_params=st.integers(1, 5), data=st.data(),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_rejected_update_changes_nothing(self, n_params, data, bad):
        store = ParameterStore(5)
        params = {f"p{i}": store.dense(f"p{i}", (2, 3)) for i in range(n_params)}
        state = OptimizerState.for_parameters(params)
        rng = np.random.default_rng(0)
        adam_step(params, {k: rng.standard_normal((2, 3)) for k in params}, state, 0.1)
        before = ({k: p.data.copy() for k, p in params.items()},
                  {k: m.copy() for k, m in state.m.items()},
                  {k: v.copy() for k, v in state.v.items()}, state.step)
        grads = {k: rng.standard_normal((2, 3)) for k in params}
        victim = data.draw(st.sampled_from(sorted(params)))
        grads[victim][data.draw(st.integers(0, 1)), data.draw(st.integers(0, 2))] = bad
        with pytest.raises(TrainingError, match=victim):
            adam_step(params, grads, state, 0.1)
        for k in params:
            np.testing.assert_array_equal(params[k].data, before[0][k])
            np.testing.assert_array_equal(state.m[k], before[1][k])
            np.testing.assert_array_equal(state.v[k], before[2][k])
        assert state.step == before[3]

    def test_shape_mismatch_rejected(self):
        store = ParameterStore(3)
        p = store.zeros("p", (2,))
        params = {"p": p}
        state = OptimizerState.for_parameters(params)
        with pytest.raises(TrainingError):
            adam_step(params, {"p": np.zeros(3)}, state, 0.1)

    def test_converges_on_quadratic(self):
        # minimize (x - 3)^2 — a sanity check that the update direction is right
        store = ParameterStore(4)
        x = store.zeros("x", (1,))
        params = {"x": x}
        state = OptimizerState.for_parameters(params)
        for _ in range(400):
            with GradientTape() as tape:
                diff = add(x, Tensor(np.array([-3.0])))
                loss = reduce_sum(mul(diff, diff))
            tape.backward(loss)
            adam_step(params, tape.gradients(params), state, lr=0.05)
        assert x.data[0] == pytest.approx(3.0, abs=1e-3)


def _check_against_reference(params, state, grads, lr):
    """One ``adam_step`` and one ``adam_reference`` per parameter, from the
    same values; every array must come out bit-identical."""
    before = {k: (p.data.copy(), state.m[k].copy(), state.v[k].copy())
              for k, p in params.items()}
    adam_step(params, grads, state, lr)
    for k, p in params.items():
        theta, m, v = adam_reference(*before[k], grads[k], state.step, lr)
        np.testing.assert_array_equal(p.data, theta)
        np.testing.assert_array_equal(state.m[k], m)
        np.testing.assert_array_equal(state.v[k], v)


# sizes either side of each chunk boundary; 2-D where the size factors
ADAM_SHAPES = [(), (1,), (ADAM_CHUNK - 1,), (ADAM_CHUNK,), (3, (ADAM_CHUNK + 1) // 3),
               (3, (2 * ADAM_CHUNK + 5) // 3)]


class TestInPlaceAdam:
    """``adam_step`` writes into the arrays it is given, chunk by chunk, and
    matches the out-of-place expression bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(shapes=st.lists(st.sampled_from(ADAM_SHAPES), min_size=1, max_size=3),
           lrs=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4),
           seed=st.integers(0, 2**16))
    def test_bit_identical_to_reference(self, shapes, lrs, seed):
        rng = np.random.default_rng(seed)
        store = ParameterStore(seed)
        params = {f"p{i}": store.embedding(f"p{i}", shape) for i, shape in enumerate(shapes)}
        state = OptimizerState.for_parameters(params)
        for lr in lrs:
            grads = {k: rng.standard_normal(p.shape) * rng.uniform(1e-3, 1e3)
                     for k, p in params.items()}
            _check_against_reference(params, state, grads, lr)
        assert state.step == len(lrs)

    def test_full_size_model_five_steps(self):
        model = ReportGenerator(ModelConfig(), vocab_size=64, chief_vocab_size=40,
                                icd_vocab_size=60, seed=0)
        params = model.parameters()
        state = OptimizerState.for_parameters(params)
        rng = np.random.default_rng(0)
        for step in range(1, 6):
            grads = {k: rng.standard_normal(p.shape) for k, p in params.items()}
            _check_against_reference(params, state, grads, lr=3e-4 * step / 4)
        assert state.step == 5

    def test_updates_the_parameters_own_arrays(self):
        store = ParameterStore(0)
        params = {"w": store.dense("w", (4, 3)), "s": store.zeros("s", ())}
        arrays = {k: p.data for k, p in params.items()}
        state = OptimizerState.for_parameters(params)
        moments = {k: (state.m[k], state.v[k]) for k in params}
        _check_against_reference(params, state, {"w": np.ones((4, 3)), "s": np.array(2.0)},
                                  0.1)
        for k, p in params.items():
            assert p.data is arrays[k]
            assert state.m[k] is moments[k][0] and state.v[k] is moments[k][1]
        assert params["s"].data == pytest.approx(-0.1)

    @pytest.mark.parametrize("make", [
        lambda: np.asfortranarray(np.ones((3, 2))),
        lambda: np.ones((3, 4))[:, ::2],
        lambda: np.broadcast_to(np.ones(2), (3, 2)),
        lambda: np.ones((3, 2)).astype(np.float32),
    ], ids=["fortran", "strided", "read-only", "float32"])
    def test_rejects_arrays_it_cannot_update_in_place(self, make):
        store = ParameterStore(0)
        params = {"ok": store.dense("ok", (3, 2)), "odd": store.dense("odd", (3, 2))}
        state = OptimizerState.for_parameters(params)
        params["odd"].data = make()
        before = params["ok"].data.copy()
        with pytest.raises(ContractError, match="'odd'"):
            adam_step(params, {k: np.ones((3, 2)) for k in params}, state, 0.1)
        np.testing.assert_array_equal(params["ok"].data, before)
        assert state.step == 0

    def test_non_finite_gradient_is_a_training_error(self):
        store = ParameterStore(0)
        params = {"w": store.zeros("w", (2,))}
        state = OptimizerState.for_parameters(params)
        with pytest.raises(NonFiniteGradientError, match="'w'") as info:
            adam_step(params, {"w": np.array([np.inf, 0.0])}, state, 0.1)
        assert isinstance(info.value, TrainingError)
        with pytest.raises(TrainingError) as info:
            adam_step(params, {"w": np.zeros(3)}, state, 0.1)
        assert not isinstance(info.value, NonFiniteGradientError)


class TestSplitDataset:
    def test_sizes_at_corpus_scale(self):
        records = list(range(3000))
        train, val = split_dataset(records, 0.7, seed=0)
        assert (len(train), len(val)) == (2100, 900)
        train, val = split_dataset(list(range(11)), 0.5, seed=0)
        assert (len(train), len(val)) == (6, 5)  # the leftover record goes to train

    def test_counts_at_0_7_equal_the_two_fraction_formula(self):
        """Split sizes did not move when the validation share stopped being a
        setting: at 0.7, the one train fraction any preset or default uses,
        every corpus size splits as the (train, val) = (0.7, 0.3) formula
        split it, written out here."""
        for n in range(2, 10_001):
            counts = [math.floor(0.7 * n), math.floor(0.3 * n)]
            for i in range(n - sum(counts)):
                counts[i % 2] += 1
            train, val = split_dataset([None] * n, 0.7, seed=0)
            assert [len(train), len(val)] == counts, n

    def test_disjoint_and_exhaustive(self):
        records = list(range(250))
        train, val = split_dataset(records, 0.7, seed=2)
        assert sorted(train + val) == records

    def test_deterministic_per_seed(self):
        records = list(range(50))
        a = split_dataset(records, 0.7, seed=3)
        b = split_dataset(records, 0.7, seed=3)
        c = split_dataset(records, 0.7, seed=4)
        assert a == b
        assert a != c

    def test_fraction_validation(self):
        for fraction in (0.0, 1.0, 1.5, -0.5):
            with pytest.raises(ConfigurationError, match=r"in \(0, 1\)"):
                split_dataset(list(range(10)), fraction, seed=0)
        with pytest.raises(ConfigurationError):
            split_dataset([1], 0.5, seed=0)

    @pytest.mark.parametrize("fraction", [math.nan, math.inf, -math.inf])
    def test_non_finite_fractions_rejected(self, fraction):
        with pytest.raises(ConfigurationError, match="finite"):
            split_dataset(list(range(10)), fraction, seed=0)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.base_lr == 3e-4
        assert cfg.warmup_steps == 500
        assert cfg.batch_size == 64
        assert cfg.max_epochs == 100
        assert cfg.early_stop_patience == 5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(ConfigurationError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("lr", [math.nan, math.inf])
    def test_base_lr_must_be_finite(self, lr):
        with pytest.raises(ConfigurationError, match="base_lr"):
            TrainConfig(base_lr=lr)


class _ToyModel:
    """Minimal model protocol: scalar parameter fit to per-record targets."""

    def __init__(self, value=0.0):
        self.store = ParameterStore(0)
        self.x = self.store.zeros("x", (1,))
        self.x.data = np.array([value])

    def parameters(self):
        return self.store.parameters

    def state_dict(self):
        return self.store.state_dict()

    def load_state_dict(self, state):
        self.store.load_state_dict(state)

    def pack(self, targets):
        """The packing fit and evaluate_split run once per split: the targets
        as an array, so a batch is an index array or a slice of it."""
        return np.array(targets, dtype=object)

    def loss_for_record(self, target):
        diff = add(self.x, Tensor(np.array([-float(target)])))
        return reduce_sum(mul(diff, diff)), int(abs(self.x.data[0] - target) < 0.5), 1

    def loss_for_batch(self, targets):
        """The batch protocol fit uses: the mean of the per-record losses."""
        total, correct, count = None, 0, 0
        for target in targets:
            loss, c, t = self.loss_for_record(target)
            total = loss if total is None else add(total, loss)
            correct += c
            count += t
        return mul(total, 1.0 / len(targets)), correct, count


class _VectorModel(_ToyModel):
    """Several vector parameters, each pulled toward the record's target."""

    def __init__(self, n_params):
        self.store = ParameterStore(0)
        self.xs = [self.store.zeros(f"x{i}", (2,)) for i in range(n_params)]

    def loss_for_record(self, target):
        total = None
        for x in self.xs:
            diff = add(x, Tensor(np.full(2, -float(target))))
            term = reduce_sum(mul(diff, diff))
            total = term if total is None else add(total, term)
        return total, 0, 1


class TestFit:
    def test_learns_and_records_history(self):
        model = _ToyModel()
        cfg = TrainConfig(base_lr=0.05, warmup_steps=5, batch_size=2, max_epochs=40,
                          early_stop_patience=5, seed=0)
        result = fit(model, [1.0, 1.0, 1.0, 1.0], [1.0, 1.0], cfg)
        assert model.x.data[0] == pytest.approx(1.0, abs=0.05)
        assert result.best_val_loss < 0.01
        assert result.history[0]["epoch"] == 1
        assert set(result.history[0]) == {"epoch", "train_loss", "train_acc",
                                          "val_loss", "val_acc", "lr"}
        losses = [row["val_loss"] for row in result.history]
        assert losses[-1] <= losses[0]

    def test_early_stopping_triggers(self):
        # constant loss surface: no strict improvement after the first epoch
        model = _ToyModel(value=1.0)

        class Frozen(_ToyModel):
            def loss_for_record(self, target):
                # loss does not depend on x -> zero gradient, flat val loss
                return reduce_sum(mul(Tensor(np.array([1.0])), 1.0)), 0, 1

        frozen = Frozen()
        cfg = TrainConfig(base_lr=0.1, warmup_steps=1, batch_size=4, max_epochs=50,
                          early_stop_patience=3, seed=0)
        result = fit(frozen, [0.0] * 4, [0.0] * 2, cfg)
        # epoch 1 improves on inf; epochs 2-4 are flat -> stop at epoch 4
        assert result.epochs_run == 4
        assert result.best_epoch == 1

    @pytest.mark.parametrize("patience, val_losses, stop_epoch", [
        (5, [1.0, 0.9, 0.91, 0.92, 0.93, 0.94, 0.95], 7),
        (5, [5.0, 5.1, 5.2, 5.3, 5.4, 5.5], 6),    # never before patience + 1 epochs
        (2, [1.0, 1.0, 1.0], 3),                     # an equal loss is no improvement
        (2, [1.0, 1.1, 0.9, 1.0, 1.0], 5),           # an improvement restarts the count
    ], ids=["documented", "not-before", "strict", "reset"])
    def test_stops_after_patience_epochs_without_improvement(self, patience, val_losses,
                                                             stop_epoch):
        class ScriptedValidation(_ToyModel):
            """Validation loss read from ``val_losses``, then ever lower, so
            a run that does not stop on time goes on to ``max_epochs``."""

            def __init__(self):
                super().__init__()
                self.script = iter(val_losses + [0.5 ** k for k in range(1, 10)])

            def loss_for_batch(self, targets):
                if list(targets) == ["val"]:
                    value = next(self.script)
                    return reduce_sum(mul(Tensor(np.array([value])), 1.0)), 0, 1
                return super().loss_for_batch(targets)

        cfg = TrainConfig(base_lr=0.05, warmup_steps=1, batch_size=2,
                          max_epochs=len(val_losses) + 5, early_stop_patience=patience,
                          seed=0)
        result = fit(ScriptedValidation(), [1.0, 1.0], ["val"], cfg)
        assert result.epochs_run == stop_epoch
        assert [row["val_loss"] for row in result.history] == val_losses
        best = min(val_losses)
        assert (result.best_epoch, result.best_val_loss) == (val_losses.index(best) + 1, best)

    def test_model_left_at_best_checkpoint(self):
        model = _ToyModel()
        cfg = TrainConfig(base_lr=0.5, warmup_steps=1, batch_size=4, max_epochs=30,
                          early_stop_patience=4, seed=1)
        result = fit(model, [2.0] * 4, [2.0] * 2, cfg)
        assert evaluate_split(model, [2.0] * 2)[0] == result.best_val_loss
        assert result.best_epoch < result.epochs_run  # a later epoch was undone

    def test_divergence_aborts_and_restores(self):
        class Exploding(_ToyModel):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def loss_for_record(self, target):
                self.calls += 1
                if self.calls > 6:
                    return reduce_sum(mul(Tensor(np.array([np.nan])), 1.0)), 0, 1
                return super().loss_for_record(target)

        model = Exploding()
        cfg = TrainConfig(base_lr=0.05, warmup_steps=1, batch_size=2, max_epochs=50,
                          early_stop_patience=5, seed=0)
        result = fit(model, [1.0, 1.0], [1.0], cfg)
        assert result.diverged
        assert np.isfinite(model.x.data).all()

    def test_non_finite_validation_loss_diverges_and_restores(self):
        class NanValidation(_ToyModel):
            """Validation loss is finite after epoch 1 and NaN after epoch 2."""

            def __init__(self):
                super().__init__()
                self.validations = 0
                self.first_validated = None

            def loss_for_batch(self, targets):
                if list(targets) == ["val"]:
                    self.validations += 1
                    if self.validations == 1:
                        self.first_validated = self.x.data.copy()
                    value = 1.0 if self.validations == 1 else np.nan
                    return reduce_sum(mul(Tensor(np.array([value])), 1.0)), 0, 1
                return super().loss_for_batch(targets)

        model = NanValidation()
        cfg = TrainConfig(base_lr=0.05, warmup_steps=1, batch_size=2, max_epochs=10,
                          early_stop_patience=5, seed=0)
        result = fit(model, [2.0, 2.0], ["val"], cfg)
        assert result.diverged
        assert (result.epochs_run, result.best_epoch, result.best_val_loss) == (2, 1, 1.0)
        assert math.isnan(result.history[-1]["val_loss"])
        assert model.first_validated[0] != 0.0      # epoch 1 moved x toward 2
        np.testing.assert_array_equal(model.state_dict()["x"], model.first_validated)

    @settings(max_examples=30, deadline=None)
    @given(n_params=st.integers(1, 4), data=st.data())
    def test_non_finite_gradient_diverges_and_restores(self, n_params, data):
        """A NaN in any one gradient at any step: fit reports divergence, the
        model holds the best state, and no Adam moment or counter moved."""
        model = _VectorModel(n_params)
        cfg = TrainConfig(base_lr=0.05, warmup_steps=1, batch_size=2, max_epochs=3,
                          early_stop_patience=5, seed=0)
        fault_call = data.draw(st.integers(1, 6))      # 2 batches x 3 epochs
        victim = data.draw(st.sampled_from(sorted(model.parameters())))
        states, seen = [], {}
        original_gradients = GradientTape.gradients
        original_for_parameters = OptimizerState.for_parameters.__func__
        original_evaluate = training.evaluate_split
        # the state each validation saw, by its loss; the initial state stays
        # best if no epoch validates
        validated = [(math.inf, model.state_dict())]

        def recording_evaluate(m, records):
            loss, acc = original_evaluate(m, records)
            validated.append((loss, m.state_dict()))
            return loss, acc

        def capture_state(cls, parameters):
            states.append(original_for_parameters(cls, parameters))
            return states[-1]

        def faulty_gradients(tape, parameters):
            grads = original_gradients(tape, parameters)
            seen["calls"] = seen.get("calls", 0) + 1
            if seen["calls"] == fault_call:
                state = states[0]
                seen["state"] = ({k: m.copy() for k, m in state.m.items()},
                                 {k: v.copy() for k, v in state.v.items()}, state.step)
                grads[victim] = np.full_like(grads[victim], np.nan)
            return grads

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(OptimizerState, "for_parameters", classmethod(capture_state))
            mp.setattr(GradientTape, "gradients", faulty_gradients)
            mp.setattr(training, "evaluate_split", recording_evaluate)
            result = fit(model, [1.0, 2.0, 1.0, 2.0], [1.5], cfg)

        assert result.diverged
        assert seen["calls"] == fault_call
        best = validated[int(np.argmin([loss for loss, _ in validated]))][1]
        for path, param in model.parameters().items():
            assert np.isfinite(param.data).all()
            np.testing.assert_array_equal(param.data, best[path])
        m_before, v_before, step_before = seen["state"]
        assert states[0].step == step_before == fault_call - 1
        for path in m_before:
            np.testing.assert_array_equal(states[0].m[path], m_before[path])
            np.testing.assert_array_equal(states[0].v[path], v_before[path])

    def test_gradient_shape_error_is_not_divergence(self, monkeypatch):
        """fit learns of a non-finite gradient only through adam_step's
        NonFiniteGradientError; any other rejection propagates."""
        model = _VectorModel(2)
        monkeypatch.setattr(GradientTape, "gradients",
                            lambda tape, parameters: {k: np.zeros(3) for k in parameters})
        cfg = TrainConfig(base_lr=0.05, warmup_steps=1, batch_size=2, max_epochs=2)
        with pytest.raises(TrainingError, match="gradient shape"):
            fit(model, [1.0, 2.0], [1.5], cfg)

    def test_no_step_tape_outlives_its_step(self, monkeypatch):
        """Each step's tape, with its closures and node gradients, is freed
        before validation runs and when fit returns: no parameter keeps it."""
        tapes = []

        class Tracked(GradientTape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        class Validated(_ToyModel):
            def loss_for_batch(self, targets):
                if active_tape() is None:  # evaluate_split
                    assert tapes and all(ref() is None for ref in tapes)
                return super().loss_for_batch(targets)

        monkeypatch.setattr(training, "GradientTape", Tracked)
        cfg = TrainConfig(base_lr=0.05, warmup_steps=1, batch_size=2, max_epochs=2,
                          early_stop_patience=5, seed=0)
        gc.disable()  # freed by reference counting, not by the cycle collector
        try:
            fit(Validated(), [1.0, 2.0, 3.0], [2.0], cfg)
        finally:
            gc.enable()
        assert len(tapes) == 4 and all(ref() is None for ref in tapes)

    @pytest.mark.parametrize("poisoned_call", [None, 2], ids=["applied", "rejected"])
    def test_no_step_gradient_outlives_its_step(self, monkeypatch, poisoned_call):
        """Every array ``tape.gradients`` returns is freed once adam_step has
        applied or rejected it: before the next step's forward, before
        validation, and before a NonFiniteGradientError's restore."""
        arrays, calls = [], []

        class Tracked(GradientTape):
            def gradients(self, parameters):
                grads = super().gradients(parameters)
                calls.append(None)
                if len(calls) == poisoned_call:
                    grads = {k: np.full_like(g, np.nan) for k, g in grads.items()}
                arrays.extend(weakref.ref(g) for g in grads.values())
                return grads

        def all_freed():
            return all(ref() is None for ref in arrays)

        class Checked(_ToyModel):
            def loss_for_batch(self, targets):
                assert all_freed()
                return super().loss_for_batch(targets)

            def load_state_dict(self, state):
                assert all_freed()
                super().load_state_dict(state)

        monkeypatch.setattr(training, "GradientTape", Tracked)
        cfg = TrainConfig(base_lr=0.05, warmup_steps=1, batch_size=2, max_epochs=2,
                          early_stop_patience=5, seed=0)
        gc.disable()  # freed by reference counting, not by the cycle collector
        try:
            result = fit(Checked(), [1.0, 2.0, 3.0], [2.0], cfg)
        finally:
            gc.enable()
        assert result.diverged == (poisoned_call is not None)
        assert len(calls) == (2 if result.diverged else 4) and all_freed()

    def test_best_state_is_snapshotted_once_then_copied_into(self):
        """fit takes one state_dict; each later improvement overwrites it."""
        snapshots = []

        class Counting(_ToyModel):
            def state_dict(self):
                snapshots.append(super().state_dict())
                return snapshots[-1]

        model = Counting()
        cfg = TrainConfig(base_lr=0.05, warmup_steps=1, batch_size=2, max_epochs=4,
                          early_stop_patience=5, seed=0)
        result = fit(model, [1.0, 1.0], [1.0], cfg)
        assert result.best_epoch == 4 and len(snapshots) == 1
        np.testing.assert_array_equal(snapshots[0]["x"], model.x.data)

    def test_empty_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            fit(_ToyModel(), [], [1.0], TrainConfig())
        with pytest.raises(ConfigurationError):
            fit(_ToyModel(), [1.0], [], TrainConfig())

    def test_deterministic_given_seed(self):
        results, models = [], [_ToyModel(), _ToyModel()]
        for model in models:
            cfg = TrainConfig(base_lr=0.07, warmup_steps=3, batch_size=2,
                              max_epochs=10, early_stop_patience=5, seed=9)
            results.append(fit(model, [1.0, 2.0, 3.0, 2.0], [2.0], cfg))
        assert results[0].history == results[1].history
        np.testing.assert_array_equal(models[0].state_dict()["x"],
                                      models[1].state_dict()["x"])


    def test_packs_train_once_and_draws_batches_from_it(self):
        packed, batches = [], []

        class Counting(_ToyModel):
            def pack(self, targets):
                packed.append(list(targets))
                return super().pack(targets)

            def loss_for_batch(self, targets):
                batches.append(targets)
                return super().loss_for_batch(targets)

        train, val = [1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0]
        cfg = TrainConfig(base_lr=0.05, warmup_steps=1, batch_size=2, max_epochs=3,
                          early_stop_patience=5, seed=0)
        result = fit(Counting(), train, val, cfg)
        # the train split once per fit, the validation split once per evaluate_split
        assert packed == [train] + [val] * result.epochs_run
        assert all(isinstance(batch, np.ndarray) for batch in batches)
        assert sorted(float(t) for batch in batches[:3] for t in batch) == train

class TestEvaluateSplit:
    def test_mean_loss_and_accuracy(self):
        model = _ToyModel(value=1.0)
        loss, acc = evaluate_split(model, [1.0, 1.0, 3.0])
        assert loss == pytest.approx((0.0 + 0.0 + 4.0) / 3)
        assert acc == pytest.approx(2.0 / 3.0)

    def test_scores_fixed_size_chunks(self, monkeypatch):
        import cxrgen.training as training
        monkeypatch.setattr(training, "EVAL_CHUNK", 2)
        model = _ToyModel(value=1.0)
        sizes = []
        original = model.loss_for_batch
        model.loss_for_batch = lambda chunk: sizes.append(len(chunk)) or original(chunk)
        loss, acc = evaluate_split(model, [1.0, 1.0, 3.0, 1.0, 3.0])
        assert sizes == [2, 2, 1]
        assert loss == pytest.approx(8.0 / 5)
        assert acc == pytest.approx(3.0 / 5.0)
