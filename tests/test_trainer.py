import numpy as np
import pytest

from conformer import numerics as nm
from conformer import trainer
from conformer.data import (DatasetBundle, NormalizationStats, SynthConfig,
                            chronological_split, make_windows, synth_generate)
from conformer.errors import ConfigError
from conformer.graph import GraphSpec, normalize_adjacency
from conformer.model import ConFormerConfig, forward, init_params
from conformer.trainer import (EarlyStopper, TrainConfig, evaluate,
                               evaluate_forecasts, evaluate_historical_inertia,
                               historical_inertia, masked_mae_loss,
                               predict_windows, train)


def tiny_bundle(seed=0):
    gen = SynthConfig(n_nodes=4, days=2, interval_minutes=60, topology="ring",
                      incident_rate=1.0, noise_scale=0.5, duration_steps=3,
                      recovery_steps=2)
    return synth_generate(gen, seed=seed)


def tiny_cfg(bundle, **kw):
    base = dict(t_in=3, t_out=3, n_nodes=bundle.n_nodes, d_in=1, d_data=4,
                d_acc=3, d_reg=3, d_dow=3, d_tod=3, d_stae=4, d_model=8,
                k_hops=1, n_heads=2, n_layers=1, dropout=0.1,
                steps_per_day=bundle.steps_per_day,
                n_acc_codes=len(bundle.acc_vocab),
                n_reg_codes=len(bundle.reg_vocab))
    base.update(kw)
    return ConFormerConfig(**base)


class TestEarlyStopper:
    def test_patience_contract(self):
        # val sequence [5, 4, 4.1, 4.2] with patience 2: stop after epoch 4,
        # best is epoch 2
        stopper = EarlyStopper(patience=2)
        decisions = [stopper.update(e, v)
                     for e, v in enumerate([5.0, 4.0, 4.1, 4.2], start=1)]
        assert decisions == [False, False, False, True]
        assert stopper.best_epoch == 2

    def test_improvement_resets_patience(self):
        stopper = EarlyStopper(patience=2)
        values = [5.0, 4.9, 4.8, 4.7]
        assert not any(stopper.update(e, v) for e, v in enumerate(values, 1))

    def test_bad_patience(self):
        with pytest.raises(ConfigError):
            EarlyStopper(patience=0)


class TestTrainConfig:
    def test_zero_learning_rate_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"momentum": 0.9})


class TestMaskedLoss:
    def test_masks_zero_targets(self):
        pred = nm.Tensor(np.array([[[[1.0]], [[2.0]]]]))  # [1, 2, 1, 1]
        target = np.array([[[[0.0]], [[5.0]]]])
        stats = NormalizationStats(0.0, 1.0)
        loss = masked_mae_loss(pred, target, stats)
        assert loss.item() == 3.0  # only the nonzero target counts

    def test_all_zero_targets_signal(self):
        pred = nm.Tensor(np.ones((1, 2, 1, 1)))
        stats = NormalizationStats(0.0, 1.0)
        assert masked_mae_loss(pred, np.zeros((1, 2, 1, 1)), stats) is None

    def test_denormalizes_inside_graph(self):
        pred = nm.Tensor(np.array([[[[1.0]]]]))
        target = np.array([[[[7.0]]]])
        stats = NormalizationStats(mean=3.0, std=2.0)
        loss = masked_mae_loss(pred, target, stats)
        assert loss.item() == 2.0  # |1*2 + 3 - 7|


class TestTraining:
    def test_deterministic_histories(self):
        bundle = tiny_bundle()
        cfg = tiny_cfg(bundle)
        tcfg = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=2,
                           patience=5, seed=3)
        r1 = train(bundle, cfg, tcfg)
        r2 = train(bundle, cfg, tcfg)
        assert [(h.epoch, h.train_mae, h.val_mae) for h in r1.history] == \
               [(h.epoch, h.train_mae, h.val_mae) for h in r2.history]
        for (n1, t1), (n2, t2) in zip(r1.params.entries(), r2.params.entries()):
            assert n1 == n2 and t1.data.tobytes() == t2.data.tobytes()

    def test_returns_best_epoch_params(self):
        bundle = tiny_bundle()
        cfg = tiny_cfg(bundle)
        tcfg = TrainConfig(learning_rate=5e-3, batch_size=8, max_epochs=3,
                           patience=5, seed=0)
        result = train(bundle, cfg, tcfg)
        best = min(result.history, key=lambda h: h.val_mae)
        assert result.best_epoch == best.epoch

    def test_split_too_short_rejected(self):
        bundle = tiny_bundle()
        cfg = tiny_cfg(bundle, t_in=20, t_out=20)
        with pytest.raises(ConfigError, match="too short"):
            train(bundle, cfg, TrainConfig(max_epochs=1))

    def test_attention_gradients_zero_at_fresh_init(self):
        """alpha = 0 blocks the branch, so attention projections get exactly
        zero gradient on the first step."""
        bundle = tiny_bundle()
        cfg = tiny_cfg(bundle, dropout=0.0)
        params = init_params(cfg, seed=1)
        split = chronological_split(bundle.n_steps)
        windows = make_windows(bundle, split.train, cfg.t_in, cfg.t_out)
        stats = NormalizationStats(float(bundle.values.mean()),
                                   float(bundle.values.std()))
        op = normalize_adjacency(bundle.graph)
        t0 = int(windows[0])
        x = stats.apply(bundle.values[t0:t0 + cfg.t_in])[..., None]
        pred = forward(x, bundle.acc_ids[t0:t0 + cfg.t_in],
                       bundle.reg_ids[t0:t0 + cfg.t_in], t0, op, params, cfg)
        y = bundle.values[t0 + cfg.t_in:t0 + cfg.t_in + cfg.t_out]
        loss = masked_mae_loss(pred, y[..., None], stats)
        record = nm.backward(loss, dict(params.entries()))
        for name in ("layer0.attn.wq", "layer0.attn.wk", "layer0.attn.wv",
                     "layer0.attn.bq", "layer0.attn.fuse.w", "layer0.ff.w1",
                     "layer0.ff.w2"):
            assert np.abs(record[name]).max() == 0.0, name
        # the identity path still trains
        assert np.abs(record["readout.w"]).max() > 0.0
        assert np.abs(record["embed.fuse.w"]).max() > 0.0


class TestEvaluate:
    def test_constant_dataset_perfect_params(self):
        values = np.full((48, 3), 55.0)
        graph = GraphSpec(3, ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)))
        bundle = DatasetBundle(values=values, acc_ids=np.zeros((48, 3), dtype=int),
                               reg_ids=np.zeros((48, 3), dtype=int), graph=graph,
                               interval_minutes=60)
        cfg = tiny_cfg(bundle)
        params = init_params(cfg, seed=0)
        # zero every parameter: fresh alpha path means output = readout(0) = 0,
        # which denormalizes to the dataset mean = the constant
        params.replace({n: np.zeros(t.shape) for n, t in params.entries()})
        split = chronological_split(bundle.n_steps)
        stats = NormalizationStats(mean=55.0, std=1.0)
        table = evaluate(params, bundle, split, "test", [1, 3], stats)
        for key in ("h1", "h3", "average"):
            assert table[key].mae == 0.0
            assert table[key].rmse == 0.0

    def test_historical_inertia_definition(self):
        bundle = tiny_bundle()
        windows = make_windows(bundle, (0, 10), 3, 4)
        preds = historical_inertia(bundle, windows, 3, 4)
        assert preds.shape == (len(windows), 4, bundle.n_nodes, 1)
        for i, t0 in enumerate(windows):
            for h in range(4):
                assert np.array_equal(preds[i, h, :, 0], bundle.values[t0 + 2])

    def test_horizon_slices_match_brute_force(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(10, 20, size=(5, 4, 3, 1))
        y_hat = y + rng.normal(0, 1, size=y.shape)
        table = evaluate_forecasts(y, y_hat, [1, 2, 4])
        for h in (1, 2, 4):
            diff = np.abs(y_hat[:, h - 1] - y[:, h - 1])
            assert abs(table[f"h{h}"].mae - diff.mean()) <= 1e-12
        assert abs(table["average"].mae - np.abs(y_hat - y).mean()) <= 1e-12

    def test_out_of_range_horizon_rejected(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(1, 2, size=(2, 3, 2, 1))
        with pytest.raises(ConfigError, match="horizon"):
            evaluate_forecasts(y, y, [4])

    def test_hi_beats_nothing_on_constant_data(self):
        values = np.full((40, 2), 10.0)
        graph = GraphSpec(2, ((0, 1, 1.0),))
        bundle = DatasetBundle(values=values, acc_ids=np.zeros((40, 2), dtype=int),
                               reg_ids=np.zeros((40, 2), dtype=int), graph=graph,
                               interval_minutes=60)
        split = chronological_split(bundle.n_steps)
        table = evaluate_historical_inertia(bundle, split, "test", 3, 3, [1])
        assert table["average"].mae == 0.0

    def test_threaded_evaluation_matches_sequential(self, monkeypatch):
        bundle = tiny_bundle()
        cfg = tiny_cfg(bundle)
        params = init_params(cfg, seed=2)
        split = chronological_split(bundle.n_steps)
        windows = make_windows(bundle, split.test, cfg.t_in, cfg.t_out)
        stats = NormalizationStats(50.0, 10.0)
        assert len(windows) > 2   # at least two batches, so the pool runs
        seq = predict_windows(params, bundle, windows, stats, batch_size=2)
        monkeypatch.setenv("CONFORMER_THREADS", "3")
        par = predict_windows(params, bundle, windows, stats, batch_size=2)
        assert np.array_equal(seq, par)

    def test_prediction_keeps_no_tape(self, monkeypatch):
        bundle = tiny_bundle()
        cfg = tiny_cfg(bundle)
        params = init_params(cfg, seed=2)
        outputs = []

        def recording_forward(*args, **kwargs):
            outputs.append(forward(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(trainer, "forward", recording_forward)
        predict_windows(params, bundle, [0, 1, 2], NormalizationStats(50.0, 10.0),
                        batch_size=2)
        assert len(outputs) == 2 and all(out._parents == () for out in outputs)

    @pytest.mark.parametrize("value", ["abc", "2.5", "", "0", "-2"])
    def test_bad_thread_count_rejected(self, monkeypatch, value):
        bundle = tiny_bundle()
        cfg = tiny_cfg(bundle)
        params = init_params(cfg, seed=2)
        monkeypatch.setenv("CONFORMER_THREADS", value)
        with pytest.raises(ConfigError, match="CONFORMER_THREADS"):
            predict_windows(params, bundle, [0, 1], NormalizationStats(50.0, 10.0))
