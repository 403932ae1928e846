import re

import numpy as np
import pytest

from conformer import numerics as nm
from conformer.embeddings import CalendarIndexer, day_steps, embed_all, time_indices
from conformer.errors import DimensionError, ValidationError
from conformer.model import ConFormerConfig, init_params
from oracles import finite_difference_gradient, index_time


def tiny_cfg(**kw):
    base = dict(t_in=4, t_out=2, n_nodes=3, d_in=1, d_data=4, d_acc=3, d_reg=3,
                d_dow=3, d_tod=3, d_stae=4, d_model=8, k_hops=1, n_heads=2,
                n_layers=1, dropout=0.0, steps_per_day=6, n_acc_codes=3,
                n_reg_codes=2)
    base.update(kw)
    return ConFormerConfig(**base)


class TestIndexTime:
    def test_five_minute_interval(self):
        cal = CalendarIndexer(steps_per_day=1440 // 5)
        assert index_time(287, cal) == (0, 287)
        assert index_time(288, cal) == (1, 0)

    def test_ten_minute_interval(self):
        cal = CalendarIndexer(steps_per_day=1440 // 10)
        assert index_time(143, cal) == (0, 143)
        assert index_time(144, cal) == (1, 0)

    def test_wrap_advances_dow(self):
        cal = CalendarIndexer(steps_per_day=4, start_weekday=2, start_slot=3)
        dow, tod = index_time(1, cal)
        assert (dow, tod) == (3, 0)

    def test_week_wraps(self):
        cal = CalendarIndexer(steps_per_day=2, start_weekday=6, start_slot=0)
        dow, _ = index_time(2, cal)
        assert dow == 0

    def test_vectorized_matches_scalar(self):
        cal = CalendarIndexer(steps_per_day=5, start_weekday=4, start_slot=2)
        dow, tod = time_indices(7, 9, cal)
        for i, t in enumerate(range(7, 16)):
            assert (dow[i], tod[i]) == index_time(t, cal)

    def test_bad_interval_rejected(self):
        # day_steps holds the rule that the interval divides the day; the
        # indexer checks the steps it is given.
        assert (day_steps(1), day_steps(5), day_steps(1440)) == (1440, 288, 1)
        for minutes in (0, -5, 7, 1441):
            with pytest.raises(ValidationError, match=f"divide 1440, got {minutes}"):
                day_steps(minutes)
        for kw in (dict(steps_per_day=0), dict(steps_per_day=-288),
                   dict(steps_per_day=288, start_weekday=7),
                   dict(steps_per_day=288, start_slot=288)):
            with pytest.raises(ValidationError):
                CalendarIndexer(**kw)


class TestEmbedAll:
    def setup_method(self):
        self.cfg = tiny_cfg()
        self.params = init_params(self.cfg, seed=0)
        self.cal = self.cfg.calendar()
        self.rng = np.random.default_rng(0)
        self.x = self.rng.normal(size=(4, 3, 1))
        self.acc = self.rng.integers(0, 3, size=(4, 3))
        self.reg = self.rng.integers(0, 2, size=(4, 3))

    def test_output_shape(self):
        out = embed_all(nm.Tensor(self.x), self.acc, self.reg, 0, self.params, self.cal)
        assert out.shape == (4, 3, 8)

    def test_pre_mlp_width(self):
        assert self.cfg.embed_width == 4 + 3 + 3 + 3 + 3 + 4
        assert self.params["embed.fuse.w"].shape == (self.cfg.embed_width, 8)

    def test_zero_row_contributes_zeros(self):
        # zero out the "none" accident row; with all ids 0 the accident block
        # contributes nothing, so fusing with/without its columns agrees
        table = self.params["embed.acc_table"].data.copy()
        table[0] = 0.0
        self.params.replace({"embed.acc_table": table})
        acc0 = np.zeros((4, 3), dtype=np.int64)
        out = embed_all(nm.Tensor(self.x), acc0, self.reg, 0, self.params, self.cal)

        fuse_w = self.params["embed.fuse.w"].data.copy()
        fuse_w[4:7] = 0.0  # accident block columns
        self.params.replace({"embed.fuse.w": fuse_w})
        out_masked = embed_all(nm.Tensor(self.x), acc0, self.reg, 0, self.params, self.cal)
        assert np.allclose(out.data, out_masked.data, atol=1e-15)

    def test_periodicity_24h_apart(self):
        a = embed_all(nm.Tensor(self.x), self.acc, self.reg, 0, self.params, self.cal)
        b = embed_all(nm.Tensor(self.x), self.acc, self.reg, self.cfg.steps_per_day,
                      self.params, self.cal)
        # same tod rows, different dow rows: outputs must differ via dow only
        dow_a = time_indices(0, 4, self.cal)[0]
        dow_b = time_indices(self.cfg.steps_per_day, 4, self.cal)[0]
        tod_a = time_indices(0, 4, self.cal)[1]
        tod_b = time_indices(self.cfg.steps_per_day, 4, self.cal)[1]
        assert np.array_equal(tod_a, tod_b)
        assert not np.array_equal(dow_a, dow_b)
        assert not np.allclose(a.data, b.data)

    def test_out_of_vocab_id_names_position(self):
        bad = self.acc.copy()
        bad[2, 1] = 99
        with pytest.raises(ValidationError, match=r"99.*t=2.*n=1"):
            embed_all(nm.Tensor(self.x), bad, self.reg, 0, self.params, self.cal)

    @pytest.mark.parametrize("shape", [(4, 2, 4), (5, 3, 4)])
    def test_adaptive_table_must_fit_window(self, shape):
        params = dict(self.params.entries())
        params["embed.adaptive"] = nm.Tensor(np.zeros(shape))
        with pytest.raises(DimensionError,
                           match=r"leading shapes differ, \(4, 3, 4\) vs " + re.escape(str(shape))):
            embed_all(nm.Tensor(self.x), self.acc, self.reg, 0, params, self.cal)

    def test_concat_order_pinned(self):
        """Each block is tagged with a distinct constant; the fused output
        under a summing MLP recovers the documented block order."""
        cfg = self.cfg
        updates = {
            "embed.data_proj.w": np.zeros((1, cfg.d_data)),
            "embed.data_proj.b": np.full(cfg.d_data, 1.0),
            "embed.acc_table": np.full((3, cfg.d_acc), 2.0),
            "embed.reg_table": np.full((2, cfg.d_reg), 3.0),
            "embed.dow_table": np.full((7, cfg.d_dow), 4.0),
            "embed.tod_table": np.full((cfg.steps_per_day, cfg.d_tod), 5.0),
            "embed.adaptive": np.full((4, 3, cfg.d_stae), 6.0),
            "embed.fuse.b": np.zeros(cfg.d_model),
        }
        self.params.replace(updates)
        # selector weights: output channel j sums block j
        widths = [cfg.d_data, cfg.d_acc, cfg.d_reg, cfg.d_dow, cfg.d_tod, cfg.d_stae]
        fuse_w = np.zeros((cfg.embed_width, cfg.d_model))
        start = 0
        for j, w in enumerate(widths):
            fuse_w[start:start + w, j] = 1.0
            start += w
        self.params.replace({"embed.fuse.w": fuse_w})
        out = embed_all(nm.Tensor(self.x), self.acc, self.reg, 0,
                        self.params, self.cal).data
        expected = [1.0 * cfg.d_data, 2.0 * cfg.d_acc, 3.0 * cfg.d_reg,
                    4.0 * cfg.d_dow, 5.0 * cfg.d_tod, 6.0 * cfg.d_stae]
        assert np.allclose(out[0, 0, :6], expected)

    def test_gradients_reach_all_tables(self):
        out = embed_all(nm.Tensor(self.x), self.acc, self.reg, 0, self.params, self.cal)
        loss = nm.tsum(out * out)
        named = dict(self.params.entries())
        record = nm.backward(loss, named)
        for name in ("embed.data_proj.w", "embed.acc_table", "embed.reg_table",
                     "embed.dow_table", "embed.tod_table", "embed.adaptive",
                     "embed.fuse.w"):
            assert np.abs(record[name]).max() > 0.0, name

    def test_unused_table_row_zero_gradient(self):
        acc0 = np.zeros((4, 3), dtype=np.int64)  # only row 0 used
        out = embed_all(nm.Tensor(self.x), acc0, self.reg, 0, self.params, self.cal)
        record = nm.backward(nm.tsum(out * out), dict(self.params.entries()))
        assert np.abs(record["embed.acc_table"][1:]).max() == 0.0
        assert np.abs(record["embed.acc_table"][0]).max() > 0.0

    def test_embedding_lookup_gradient_matches_fd(self):
        weights = nm.Tensor(np.random.default_rng(1).normal(size=(4, 3, 8)))

        def loss_for(arr):
            self.params.replace({"embed.dow_table": arr})
            out = embed_all(nm.Tensor(self.x), self.acc, self.reg, 0,
                            self.params, self.cal)
            return nm.tsum(out * weights).item()

        base = self.params["embed.dow_table"].data.copy()
        out = embed_all(nm.Tensor(self.x), self.acc, self.reg, 0, self.params, self.cal)
        analytic = nm.backward(nm.tsum(out * weights),
                               dict(self.params.entries()))["embed.dow_table"]
        fd = finite_difference_gradient(loss_for, base)
        self.params.replace({"embed.dow_table": base})
        assert nm.relative_error(analytic, fd) <= 1e-4

    def test_batched_matches_loop(self):
        xb = np.stack([self.x, self.x * 0.5])
        accb = np.stack([self.acc, self.acc])
        regb = np.stack([self.reg, self.reg])
        t0s = np.array([0, 3])
        out = embed_all(nm.Tensor(xb), accb, regb, t0s, self.params, self.cal).data
        for i in range(2):
            single = embed_all(nm.Tensor(xb[i]), accb[i], regb[i], int(t0s[i]),
                               self.params, self.cal).data
            assert np.allclose(out[i], single, atol=1e-15)
