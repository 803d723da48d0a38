"""The eager-merged difference index (§4.2, Appendix C), for D and for δJ.

The paper stores, per vertex, a list of ``(iteration, state)`` pairs sorted
by iteration — 1-D timestamps because the graph-version dimension is merged
eagerly, and positive multiplicities only because each vertex takes one
state per iteration (the negative half of each change is implied). The
state of v at iteration t is the value at the latest stored iteration
``i* <= t`` (binary search in the paper; a vectorized groupby here).

``DiffStore`` is that index, vectorized over its key columns: a pandas
frame with columns ``*keys, it, val``. D is keyed by ``(qid, v)``; VDC's
δJ message trace has the same shape keyed by ``(qid, v, w)`` (receiver v,
sender w). It is driver-side state — the arrangement the dataflow
operators read — while the Join/aggregate work runs in Spark
(:mod:`repro.core.frontier`).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.specs import INF

D_KEYS = ("qid", "v")
J_KEYS = ("qid", "v", "w")


def _as_frame(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    out = df[cols].copy()
    for c in cols:
        out[c] = out[c].astype(np.float64 if c == "val" else np.int64)
    return out


class DiffStore:
    """Eager-merged, positive-only difference sets, one trace per key."""

    def __init__(self, df: pd.DataFrame | None = None, keys: tuple[str, ...] = D_KEYS) -> None:
        self.keys = list(keys)
        self.cols = self.keys + ["it", "val"]
        if df is not None and len(df):
            self.df = _as_frame(df, self.cols)
        else:
            self.df = _as_frame(pd.DataFrame(columns=self.cols), self.cols)

    def _empty(self, cols: list[str]) -> pd.DataFrame:
        return self.df.iloc[:0][cols]

    def copy(self) -> "DiffStore":
        return DiffStore(self.df, self.keys)

    def __len__(self) -> int:
        return len(self.df)

    def n_diffs(self) -> int:
        return len(self.df)

    def per_qid_counts(self) -> pd.Series:
        return self.df.groupby("qid").size()

    def max_iter(self) -> int:
        return int(self.df["it"].max()) if len(self.df) else 0

    # ------------------------------------------------------------------ writes
    def set_rows(self, rows: pd.DataFrame) -> None:
        """Upsert rows keyed by (*keys, it)."""
        if not len(rows):
            return
        rows = _as_frame(rows, self.cols)
        merged = pd.concat([self.df, rows], ignore_index=True)
        self.df = merged.drop_duplicates(subset=self.keys + ["it"], keep="last").reset_index(
            drop=True
        )

    def delete_rows(self, keys: pd.DataFrame) -> None:
        """Delete rows matching ``keys`` on every key column and ``it`` it
        carries: (*keys, it) deletes single rows, (qid, w) every message
        from a δJ sender."""
        if not len(keys) or not len(self.df):
            return
        on = [c for c in self.keys + ["it"] if c in keys.columns]
        keys = _as_frame(keys, on).drop_duplicates()
        m = self.df.merge(keys, on=on, how="left", indicator=True)
        self.df = self.df[(m["_merge"] == "left_only").to_numpy()].reset_index(drop=True)

    # ------------------------------------------------------------------- reads
    def rows_for_keys(self, keys: pd.DataFrame) -> pd.DataFrame:
        """All stored rows matching ``keys`` on the key columns it carries."""
        if not len(keys) or not len(self.df):
            return self._empty(self.cols)
        on = [c for c in self.keys if c in keys.columns]
        keys = _as_frame(keys, on).drop_duplicates()
        return self.df.merge(keys, on=on, how="inner")

    def latest_leq(self, keys: pd.DataFrame, t: int | None = None) -> pd.DataFrame:
        """State reassembly: latest stored iteration ``<= t`` per key.

        ``keys`` has the key columns and, when ``t`` is None, a per-row
        column ``t``. Returns one row per input key with columns
        ``*keys, t, it, val``; keys with no stored row ``<= t`` get
        ``it = -1, val = +inf`` (unreachable).
        """
        keys = keys.copy()
        if t is not None:
            keys["t"] = np.int64(t)
        keys = _as_frame(keys, self.keys).assign(t=keys["t"].astype(np.int64).to_numpy())
        keys = keys.drop_duplicates().reset_index(drop=True)
        kt = self.keys + ["t"]
        if not len(keys):
            return keys.assign(it=pd.Series(dtype=np.int64), val=pd.Series(dtype=np.float64))
        m = keys.merge(self.df, on=self.keys, how="left")
        m = m[(m["it"].isna()) | (m["it"] <= m["t"])]
        m = m.sort_values("it").groupby(kt, as_index=False).last()
        # Keys whose every stored row was > t vanish in the filter; restore.
        out = keys.merge(m, on=kt, how="left")
        out["it"] = out["it"].fillna(-1).astype(np.int64)
        out["val"] = out["val"].fillna(INF)
        return out[kt + ["it", "val"]]

    def snapshot_at(self, t: int, keys: pd.DataFrame | None = None) -> pd.DataFrame:
        """Full reassembly at iteration t: (*keys, val) for every stored key,
        or only those matching ``keys`` on the key columns it carries."""
        d = self.df if keys is None else self.rows_for_keys(keys)
        d = d[d["it"] <= t]
        if not len(d):
            return self._empty(self.keys + ["val"])
        d = d.sort_values("it").groupby(self.keys, as_index=False).last()
        return d[self.keys + ["val"]].reset_index(drop=True)

    def iters_after(self, keys: pd.DataFrame) -> pd.DataFrame:
        """Stored iterations strictly greater than each key's ``t``.

        ``keys``: columns (*keys, t). Returns (*keys, it) rows, it > t.
        Used by the upper-bound rule's conditions (i)/(ii) (§4.1).
        """
        cols = self.keys + ["it"]
        if not len(keys) or not len(self.df):
            return self._empty(cols)
        k = _as_frame(keys, self.keys).assign(t=keys["t"].astype(np.int64).to_numpy())
        k = k.drop_duplicates()
        m = k.merge(self.df, on=self.keys, how="inner")
        m = m[m["it"] > m["t"]]
        return m[cols].drop_duplicates().reset_index(drop=True)

    def iters_of(self, keys: pd.DataFrame) -> pd.DataFrame:
        """All stored iterations for the given keys: columns (*keys, it)."""
        return self.rows_for_keys(keys)[self.keys + ["it"]].reset_index(drop=True)
