import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conformer import numerics as nm
from conformer import trainer
from conformer.data import (DatasetBundle, NormalizationStats, SynthConfig,
                            chronological_split, make_windows, synth_generate,
                            window_block)
from conformer.errors import ConfigError, ValidationError
from conformer.graph import GraphSpec
from conformer.model import (ABLATIONS, ConFormerConfig, config_from_dict, forward,
                             init_params)
from conformer.trainer import (TrainConfig, evaluate,
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


def _topo(loss):
    """The tape record of every node that reaches ``loss``, parents before
    children."""
    topo, seen, stack = [], set(), [(loss._record, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return topo


def _reachability(topo, wanted):
    """The ids of records that reach a parameter, and of those whose VJP feeds
    one.

    A record reaches a parameter when it is a parameter's record or one of
    its parents reaches one.
    """
    reaches, flows = set(), set()
    for node in topo:
        if any(id(parent) in reaches for parent in node._parents):
            flows.add(id(node))
            reaches.add(id(node))
        elif id(node) in wanted:
            reaches.add(id(node))
    return reaches, flows


def reference_backward(loss, params):
    """The reverse pass that keeps its tape and runs only VJPs on a parameter path.

    The loop of ``nm.backward`` before it consumed the tape, with its
    reachability sweep, kept as the reference its gradients must match
    bitwise.
    """
    topo = _topo(loss)
    wanted = {id(p._record) for p in params.values()}
    reaches, flows = _reachability(topo, wanted)
    grads = {id(loss._record): np.ones(loss.shape)}
    for node in reversed(topo):
        key = id(node)
        if key not in flows or key not in grads:
            continue
        grad = grads[key] if key in wanted else grads.pop(key)
        for parent, pgrad in zip(node._parents, node._vjp(grad)):
            pkey = id(parent)
            if pgrad is None or pkey not in reaches:
                continue
            grads[pkey] = grads[pkey] + pgrad if pkey in grads else pgrad
    return {name: grads.get(id(p._record), np.zeros(p.shape))
            for name, p in params.items()}


def training_graph(ablation):
    """A loss builder and the parameters of the criterion-8 model at small
    widths: batched windows, K=2, 4 heads, dropout on, random weights so
    every branch is live."""
    bundle = tiny_bundle()
    cfg = tiny_cfg(bundle, k_hops=2, n_heads=4,
                   ablations=(ablation,) if ablation else ())
    params = init_params(cfg, seed=1)
    rng = np.random.default_rng(2)
    params.replace({n: rng.normal(0, 0.3, t.shape) for n, t in params.entries()})
    stats = NormalizationStats(50.0, 10.0)
    t0s = np.array([0, 3, 9])
    x, acc, reg = trainer._gather(bundle, t0s, cfg.t_in, stats)
    y = bundle.values[t0s[:, None] + cfg.t_in + np.arange(cfg.t_out)][..., None]

    def loss():
        pred = forward(x, acc, reg, t0s, bundle.graph, params, cfg,
                       dropout_rng=np.random.default_rng(3))
        return masked_mae_loss(pred, y, stats)

    return loss, dict(params.entries())


class TestTrainConfig:
    def test_zero_learning_rate_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("adam_eps", 0.0), ("adam_eps", -1e-8), ("adam_eps", float("inf")),
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.5), ("beta2", float("nan")),
        ("clip_norm", -1.0), ("clip_norm", float("inf")), ("clip_norm", float("nan")),
        ("clip_norm", 1e200), ("seed", -1),
    ])
    def test_value_that_breaks_a_run_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_zero_clip_norm_accepted(self):
        assert TrainConfig(clip_norm=0.0).clip_norm == 0.0

    def test_zero_patience_rejected(self):
        with pytest.raises(ConfigError, match="patience"):
            TrainConfig(patience=0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict(TrainConfig, {"momentum": 0.9}, "train")


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

    @staticmethod
    def scripted_train(monkeypatch, val_maes, patience, max_epochs):
        """Train the tiny model with ``val_maes`` as the per-epoch validation
        MAEs; also returns the parameters each validation saw."""
        seen = []

        def recording_predict(params, *args):
            seen.append(params.copy())
            return predict_windows(params, *args)

        scripted = iter(val_maes)
        monkeypatch.setattr(trainer, "predict_windows", recording_predict)
        monkeypatch.setattr(trainer, "masked_metrics",
                            lambda y, y_hat: SimpleNamespace(mae=next(scripted)))
        bundle = tiny_bundle()
        result = train(bundle, tiny_cfg(bundle), TrainConfig(
            learning_rate=5e-3, batch_size=8, max_epochs=max_epochs, patience=patience))
        return result, seen

    def test_stops_patience_epochs_after_the_best(self, monkeypatch):
        result, seen = self.scripted_train(monkeypatch, [5.0, 4.0, 4.1, 4.2],
                                           patience=2, max_epochs=10)
        assert [h.val_mae for h in result.history] == [5.0, 4.0, 4.1, 4.2]
        assert result.best_epoch == 2

        def raw(params):
            return [t.data.tobytes() for _, t in params.entries()]

        assert raw(result.params) == raw(seen[1]) != raw(seen[3])

    def test_improvement_resets_patience(self, monkeypatch):
        result, _ = self.scripted_train(monkeypatch, [5.0, 4.9, 4.8, 4.7],
                                        patience=1, max_epochs=4)
        assert len(result.history) == 4 and result.best_epoch == 4

    @pytest.mark.parametrize("split_name", ["train", "val"])
    def test_split_without_observed_target_rejected(self, split_name):
        # Zeros mean missing: such a split would train nothing or never
        # score an epoch.
        bundle = tiny_bundle()
        lo, hi = chronological_split(bundle.n_steps).range_for(split_name)
        bundle.values[lo:hi] = 0.0
        with pytest.raises(ConfigError, match=f"split '{split_name}' has no observed target"):
            train(bundle, tiny_cfg(bundle), TrainConfig(max_epochs=1))

    def test_batch_without_observed_target_skipped(self, monkeypatch):
        bundle = tiny_bundle()
        cfg = tiny_cfg(bundle)
        lo, _ = chronological_split(bundle.n_steps).train
        # Only the window starting at lo + 2 forecasts nothing but zeros.
        bundle.values[lo + 2 + cfg.t_in:lo + 2 + cfg.t_in + cfg.t_out] = 0.0
        losses = []

        def recording_loss(*args):
            losses.append(masked_mae_loss(*args))
            return losses[-1]

        monkeypatch.setattr(trainer, "masked_mae_loss", recording_loss)
        result = train(bundle, cfg, TrainConfig(batch_size=1, max_epochs=2, patience=5))
        assert [loss is None for loss in losses].count(True) == 2  # once per epoch
        assert len(result.history) == 2
        assert all(np.isfinite([h.train_mae, h.val_mae]).all() for h in result.history)

    def test_split_too_short_rejected(self):
        bundle = tiny_bundle()
        cfg = tiny_cfg(bundle, t_in=20, t_out=20)
        with pytest.raises(ConfigError, match="too short"):
            train(bundle, cfg, TrainConfig(max_epochs=1))

    @pytest.mark.parametrize("ablation", ("",) + ABLATIONS)
    def test_consuming_backward_matches_reference_bitwise(self, ablation):
        loss, named = training_graph(ablation)
        expected = reference_backward(loss(), named)
        record = nm.backward(loss(), named)
        assert record.keys() == expected.keys()
        for name, grad in expected.items():
            assert record[name].tobytes() == grad.tobytes(), name
        assert any(np.abs(g).max() > 0 for n, g in record.items() if ".attn." in n)

    @pytest.mark.parametrize("ablation", ("",) + ABLATIONS)
    def test_every_interior_node_reaches_a_parameter(self, ablation):
        # ``nm.backward`` runs every VJP a gradient reaches. That matches the
        # reference, which skips VJPs off the parameter path, only while the
        # model puts no Tensor-wrapped constant on its path.
        loss, named = training_graph(ablation)
        topo = _topo(loss())
        reaches, _ = _reachability(topo, {id(p._record) for p in named.values()})
        interior = [node for node in topo if node._parents]
        assert len(interior) > 50
        off_path = [node.shape for node in interior if id(node) not in reaches]
        assert off_path == []

    def test_criterion_8_step_tape_and_backward_peak(self):
        """The criterion-8 step (B=64, N=30, D=32, K=2, 4 heads) keeps a tape
        of about 318 MiB after forward, and ``backward`` peaks at about 336
        MiB: a VJP keeps only the arrays it reads. While each node held its
        parents' arrays they read 416 and 449 MiB."""
        bundle = synth_generate(SynthConfig(n_nodes=30, days=2, interval_minutes=5,
                                            topology="ring", incident_rate=0.3), seed=1)
        cfg = ConFormerConfig(t_in=12, t_out=12, n_nodes=30, d_in=1, d_model=32, k_hops=2,
                              n_heads=4, n_layers=1, dropout=0.1,
                              steps_per_day=bundle.steps_per_day,
                              n_acc_codes=len(bundle.acc_vocab),
                              n_reg_codes=len(bundle.reg_vocab))
        params = init_params(cfg, seed=0)
        stats = NormalizationStats(50.0, 10.0)
        t0s = np.arange(64) * 4
        x, acc, reg = trainer._gather(bundle, t0s, cfg.t_in, stats)
        y = window_block(bundle.values, t0s, cfg.t_in, cfg.t_out)[..., None]
        mib = 2 ** 20
        tracemalloc.start()
        try:
            pred = forward(x, acc, reg, t0s, bundle.graph, params, cfg,
                           dropout_rng=np.random.default_rng(0))
            loss = masked_mae_loss(pred, y, stats)
            del pred
            tape = tracemalloc.get_traced_memory()[0] / mib
            tracemalloc.reset_peak()
            nm.backward(loss, dict(params.entries()))
            peak = tracemalloc.get_traced_memory()[1] / mib
        finally:
            tracemalloc.stop()
        assert 250 < tape < 367, tape
        assert peak < 392, peak

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
        t0 = int(windows[0])
        x = stats.apply(bundle.values[t0:t0 + cfg.t_in])[..., None]
        pred = forward(x, bundle.acc_ids[t0:t0 + cfg.t_in],
                       bundle.reg_ids[t0:t0 + cfg.t_in], t0, bundle.graph, params, cfg)
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

    def test_threaded_evaluation_matches_sequential(self, threads, force_split, slabs):
        bundle = tiny_bundle()
        cfg = tiny_cfg(bundle)
        params = init_params(cfg, seed=2)
        split = chronological_split(bundle.n_steps)
        windows = make_windows(bundle, split.test, cfg.t_in, cfg.t_out)
        stats = NormalizationStats(50.0, 10.0)
        assert len(windows) % 3 and len(windows) > 3  # uneven slabs at 3 threads
        threads(1)
        seq = predict_windows(params, bundle, windows, stats)
        force_split(3)
        par = predict_windows(params, bundle, windows, stats)
        assert slabs and {k for _, k in slabs} == {3}
        assert seq.tobytes() == par.tobytes()

    def test_batch_size_changes_no_byte(self):
        bundle = tiny_bundle()
        cfg = tiny_cfg(bundle)
        params = init_params(cfg, seed=2)
        rng = np.random.default_rng(3)
        params.replace({n: rng.normal(0, 0.2, t.shape) for n, t in params.entries()})
        windows = make_windows(bundle, (0, bundle.n_steps), cfg.t_in, cfg.t_out)
        stats = NormalizationStats(50.0, 10.0)
        assert 3 < len(windows) < 64 and len(windows) % 3  # a short last batch at 3
        first, *rest = (predict_windows(params, bundle, windows, stats, batch_size=size)
                        for size in (1, 3, 64))
        assert all(pred.tobytes() == first.tobytes() for pred in rest)

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

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_bad_batch_size_rejected(self, batch_size):
        bundle = tiny_bundle()
        cfg = tiny_cfg(bundle)
        params = init_params(cfg, seed=2)
        stats = NormalizationStats(50.0, 10.0)
        with pytest.raises(ConfigError, match="batch_size"):
            predict_windows(params, bundle, [0, 1, 2], stats, batch_size=batch_size)

    @pytest.mark.parametrize("start", [-1, 46])
    def test_window_outside_data_rejected(self, start):
        bundle = tiny_bundle()
        cfg = tiny_cfg(bundle)
        params = init_params(cfg, seed=2)
        assert bundle.n_steps == 48
        with pytest.raises(ValidationError, match=rf"window start {start} .*\[0, 45\]"):
            predict_windows(params, bundle, [0, start], NormalizationStats(50.0, 10.0))

    @pytest.mark.parametrize("value", ["abc", "2.5", "", "0", "-2"])
    def test_bad_thread_count_rejected(self, threads, value):
        """Refused on entry, though no op of one tiny window would split."""
        bundle = tiny_bundle()
        cfg = tiny_cfg(bundle)
        params = init_params(cfg, seed=2)
        threads(value)
        with pytest.raises(ConfigError, match="CONFORMER_THREADS"):
            predict_windows(params, bundle, [0], NormalizationStats(50.0, 10.0))
        with pytest.raises(ConfigError, match="CONFORMER_THREADS"):
            train(bundle, cfg, TrainConfig(max_epochs=1))
