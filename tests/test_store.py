"""DiffStore tests: the eager-merged 1-D difference index (§4.2, App. C).

Every case runs on both key shapes the engines use: D keyed by (qid, v)
in the ``Test*`` classes, and VDC's δJ keyed by (qid, v, w) in their
``*J`` subclasses (one sender ``W`` per key frame).
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.specs import INF
from repro.core.store import D_KEYS, J_KEYS, DiffStore

W = 7


class _Shape:
    """Key frames and rows for the store shape under test."""

    shape = D_KEYS

    def _widen(self, df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(w=W) if "w" in self.shape else df

    def rows(self, *tuples):
        return self._widen(pd.DataFrame(tuples, columns=["qid", "v", "it", "val"]))

    def keys(self, **cols):
        return self._widen(pd.DataFrame(cols))

    @pytest.fixture
    def store(self):
        s = DiffStore(keys=self.shape)
        s.set_rows(
            self.rows((0, 1, 0, 10.0), (0, 1, 3, 7.0), (0, 2, 1, 5.0), (1, 1, 2, 9.0))
        )
        return s


class TestWrites(_Shape):
    def test_set_and_len(self, store):
        assert len(store) == 4

    def test_upsert_overwrites(self, store):
        store.set_rows(self.rows((0, 1, 3, 6.0)))
        assert len(store) == 4
        got = store.latest_leq(self.keys(qid=[0], v=[1]), 3)
        assert got["val"].iloc[0] == 6.0

    def test_delete(self, store):
        store.delete_rows(self.rows((0, 1, 3, 0.0)).drop(columns="val"))
        assert len(store) == 3

    def test_delete_absent_noop(self, store):
        store.delete_rows(self.rows((9, 9, 9, 0.0)).drop(columns="val"))
        assert len(store) == 4

    def test_empty_ops(self):
        s = DiffStore(keys=self.shape)
        s.set_rows(self.rows())
        s.delete_rows(self.rows().drop(columns="val"))
        assert len(s) == 0


class TestReassembly(_Shape):
    def test_latest_leq_picks_latest(self, store):
        keys = self.keys(qid=[0], v=[1])
        assert store.latest_leq(keys, 5)["val"].iloc[0] == 7.0
        assert store.latest_leq(keys, 2)["val"].iloc[0] == 10.0

    def test_latest_leq_unreachable(self, store):
        keys = self.keys(qid=[0], v=[99])
        got = store.latest_leq(keys, 5)
        assert got["val"].iloc[0] == INF and got["it"].iloc[0] == -1

    def test_latest_leq_before_first(self, store):
        keys = self.keys(qid=[0], v=[2])
        got = store.latest_leq(keys, 0)
        assert got["val"].iloc[0] == INF

    def test_latest_leq_per_row_t(self, store):
        keys = self.keys(qid=[0, 0], v=[1, 1], t=[2, 3])
        got = store.latest_leq(keys).sort_values("t")
        assert list(got["val"]) == [10.0, 7.0]

    def test_qid_isolation(self, store):
        keys = self.keys(qid=[1], v=[1])
        assert store.latest_leq(keys, 5)["val"].iloc[0] == 9.0

    def test_snapshot(self, store):
        snap = store.snapshot_at(2).set_index(["qid", "v"])["val"]
        assert snap[(0, 1)] == 10.0 and snap[(0, 2)] == 5.0 and snap[(1, 1)] == 9.0

    def test_snapshot_excludes_future(self, store):
        snap = store.snapshot_at(0)
        assert len(snap) == 1  # only (0,1) has an it=0 diff


class TestSchedulingQueries(_Shape):
    def test_iters_after(self, store):
        keys = self.keys(qid=[0], v=[1], t=[0])
        got = store.iters_after(keys)
        assert set(got["it"]) == {3}

    def test_iters_after_none(self, store):
        keys = self.keys(qid=[0], v=[1], t=[3])
        assert len(store.iters_after(keys)) == 0

    def test_iters_of(self, store):
        keys = self.keys(qid=[0], v=[1])
        assert set(store.iters_of(keys)["it"]) == {0, 3}

    def test_rows_for_keys(self, store):
        keys = self.keys(qid=[0, 1], v=[1, 1])
        assert len(store.rows_for_keys(keys)) == 3


class TestMetrics(_Shape):
    def test_counts(self, store):
        assert store.n_diffs() == 4
        assert store.per_qid_counts()[0] == 3

    def test_max_iter(self, store):
        assert store.max_iter() == 3

    def test_copy_isolated(self, store):
        c = store.copy()
        store.set_rows(self.rows((0, 9, 9, 1.0)))
        assert len(c) == 4 and len(store) == 5


class TestWritesJ(TestWrites):
    shape = J_KEYS

    def test_delete_sender(self, store):
        """A (qid, w) key frame deletes every message from that sender."""
        store.set_rows(self.rows((0, 1, 3, 1.0)).assign(w=W + 1))
        store.delete_rows(pd.DataFrame({"qid": [0], "w": [W]}))
        assert len(store) == 2 and set(store.df["w"]) == {W, W + 1}


class TestReassemblyJ(TestReassembly):
    shape = J_KEYS

    def test_sender_isolation(self, store):
        """Each (qid, v, w) is its own trace; a (qid, v) snapshot returns
        the latest message of every sender into v."""
        store.set_rows(self.rows((0, 1, 1, 4.0)).assign(w=W + 1))
        snap = store.snapshot_at(5, pd.DataFrame({"qid": [0], "v": [1]}))
        assert dict(zip(snap["w"], snap["val"])) == {W: 7.0, W + 1: 4.0}
        assert store.latest_leq(self.keys(qid=[0], v=[1]), 2)["val"].iloc[0] == 10.0


class TestSchedulingQueriesJ(TestSchedulingQueries):
    shape = J_KEYS


class TestMetricsJ(TestMetrics):
    shape = J_KEYS
