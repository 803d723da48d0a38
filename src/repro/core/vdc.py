"""VDC: vanilla differential computation — JOD's engine *plus* the δJ store.

The defining difference from DC^JOD (§4) is that vanilla DC materializes
the Join operator's output differences. ``VDCEngine`` therefore maintains a
second eager-merged difference store, δJ: the same
:class:`repro.core.store.DiffStore` as D, keyed by (qid, receiver v,
sender w), with rows ``(qid, v, w, it, val)`` meaning "the message from w
to v changed to val at iteration it". Aggregation reruns reassemble J from
this store (a lookup) instead of re-joining edges with neighbour states
(what JOD does on demand) — and the store's rows are the memory that JOD
saves (counted at 24 B each by :mod:`repro.core.memory`).

δJ maintenance:

* initial load — one bulk Join job over the G0 state trace;
* edge changes — every changed edge's source has its whole out-message set
  rebuilt from its current state trace (covers inserts, deletes, weight
  changes, and PR's out-degree dependence);
* state changes at iteration i — messages to out-neighbours upserted at
  i+1 (deleted when the sender became unreachable, since by trace
  monotonicity it was unreachable at every earlier iteration too).

Scheduling is shared with DC^JOD (a conservative superset of vanilla DC's
reruns — Thm 4.1 — so results are identical; DESIGN.md §3 documents this).
Partial dropping composes with JOD only, as in the paper, so ``VDCEngine``
rejects a drop manager.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core import frontier as fr
from repro.core import static_ife
from repro.core.engine import DCJODEngine
from repro.core.specs import INF
from repro.core.store import J_KEYS, DiffStore
from repro.graphs.updates import Batch


class VDCEngine(DCJODEngine):
    """Vanilla DC: JOD maintenance plus a materialized δJ message store."""

    materializes_join = True

    def __init__(self, spark, spec, initial_edges, drop_manager=None) -> None:
        if drop_manager is not None:
            raise ValueError("partial dropping composes with JOD, not VDC (§5)")
        self.jstore = DiffStore(keys=J_KEYS)
        super().__init__(spark, spec, initial_edges, None)

    # ----------------------------------------------------------- δJ plumbing
    def _store_messages(self, trace: pd.DataFrame) -> None:
        """Store the messages a (qid, v, it, val) state trace sends: a state
        at it reaches the out-neighbours at it+1 (one Join job)."""
        sent = fr.sender_states(trace, self.spec, self._outdeg)
        raw = fr.raw_messages(self.spark, self._edges_sp, sent, self.spec)
        self.jstore.set_rows(raw.assign(it=raw["it"] + 1))

    # ------------------------------------------------------------- engine hooks
    def _load_initial(self) -> None:
        super()._load_initial()
        self._store_messages(self.store.df)

    def _on_batch_start(self, batch: Batch) -> None:
        """Rebuild the full out-message trace of every changed edge's source
        from its current state trace and the current edges."""
        qids = np.asarray(self.spec.qids(), np.int64)
        srcs = batch.changes["src"].unique().astype(np.int64)
        senders = pd.DataFrame(
            {"qid": np.repeat(qids, len(srcs)), "w": np.tile(srcs, len(qids))}
        )
        self.jstore.delete_rows(senders)
        trace = self.store.rows_for_keys(senders.rename(columns={"w": "v"}))
        if len(trace):
            self._store_messages(trace)

    def _on_changed(self, changed: pd.DataFrame, i: int) -> None:
        dead = changed[~np.isfinite(changed["val"])]
        if len(dead):
            # unreachable at i ⇒ unreachable at every earlier iteration of
            # the new trace ⇒ all its messages at it <= i+1 are stale.
            sent = self.jstore.rows_for_keys(dead.rename(columns={"v": "w"})[["qid", "w"]])
            self.jstore.delete_rows(sent[sent["it"] <= i + 1])
        st = fr.sender_states(changed, self.spec, self._outdeg)
        if not len(st):
            return
        raw = fr.raw_messages(self.spark, self._edges_sp, st, self.spec)
        if not len(raw):
            return
        # Eager-merge hygiene: if the new message equals the sender's message
        # value already in force at iteration i, there is no difference at
        # i+1 — delete any stale row instead of storing a redundant one. An
        # absent message reads +inf and never equals a (finite) new one.
        prev = self.jstore.latest_leq(raw, i).rename(columns={"val": "pval"})
        cmp = raw.merge(prev[[*J_KEYS, "pval"]], on=list(J_KEYS), how="left")
        cmp["it"] = np.int64(i + 1)
        same = (cmp["pval"] == cmp["val"]).to_numpy()
        self.jstore.delete_rows(cmp[same])
        self.jstore.set_rows(cmp[~same])

    def _recompute(self, F: pd.DataFrame, i: int) -> pd.DataFrame:
        """Rerun the aggregation reading J from the δJ store (no re-join)."""
        # prev states for the change comparison (store lookup; VDC never drops)
        look = self.store.latest_leq(F, i - 1)
        self._last_states = look[["qid", "v", "val"]]
        msgs = self.jstore.snapshot_at(i, F[["qid", "v"]])
        base = static_ife.base_rows(self.spec, F)
        agg = fr.aggregate_msgs(self.spark, msgs, base, self.spec)
        new = F.merge(agg, on=["qid", "v"], how="left")
        new["val"] = new["val"].fillna(INF)
        return new
