"""The IFE ExpandFrontier operator pair (Fig. 1) as Spark DataFrame jobs.

Each call is one Catalyst job: the Join operator (states ⋈ edges, the
message function f(state_w, e)) followed by the aggregation operator
(groupBy + min/sum), exactly the dataflow in Fig. 1b. Every entry point
goes through the same two helpers: :func:`_upload` lifts a pandas frame
into Spark with canonical column types, and :func:`_aggregate` unions the
message parts, aggregates them per key and collects the result. The four
entry points differ only in which rows meet the Join and which keys the
aggregation keeps:

* :func:`aggregate_at` — recomputation-style: for each frontier vertex v,
  ``D[v] = agg(base(v), { f(state_w, e) : e=(w,v) })``. Used by DC^JOD
  recomputation, by dropped-difference recomputation, and by PageRank.
  When the frontier carries an iteration column ``t`` the states carry
  one too, and each frontier row reads the states at ``t − 1``: targets at
  many iterations resolve in one job.
* :func:`push_messages` — frontier-style: messages from changed vertices to
  their out-neighbours, pre-aggregated per destination. Used by the static
  (Scratch) engine. For min-aggregators the two styles produce identical
  traces (monotone-relaxation equivalence; see DESIGN.md §5).
* :func:`raw_messages` — the Join output kept per sender: one row per
  (changed w, receiver v), the δJ differences VDC materializes. The
  sender's ``it`` is kept when the input has one.
* :func:`aggregate_msgs` — aggregation over already-materialized messages
  (VDC reassembling J from its δJ store).

All inputs/outputs at this boundary are pandas frames (the driver-side
arrangement); the join/aggregate work itself is Spark SQL. Broadcast joins
stay disabled in the session (:func:`repro.harness.tables.get_spark`), so
the shuffle path is exercised.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.specs import QuerySpec

#: Columns crossing the pandas→Spark boundary as 64-bit integers; every
#: other column (val, aux, weight) is a double.
_LONG_COLS = ("qid", "v", "w", "t", "it", "src", "dst")


def _dtype(col: str):
    return np.int64 if col in _LONG_COLS else np.float64


def _upload(spark: SparkSession, df: pd.DataFrame, cols: list[str]) -> DataFrame:
    """Lift ``df[cols]`` into Spark with the canonical column types."""
    pdf = pd.DataFrame({c: df[c].to_numpy(_dtype(c)) for c in cols})
    schema = T.StructType(
        [T.StructField(c, T.LongType() if c in _LONG_COLS else T.DoubleType()) for c in cols]
    )
    return spark.createDataFrame(pdf, schema=schema)


def _empty(cols: list[str]) -> pd.DataFrame:
    return pd.DataFrame({c: pd.Series(dtype=_dtype(c)) for c in cols})


def _aggregate(parts: list[DataFrame], keys: list[str], spec: QuerySpec) -> pd.DataFrame:
    """The aggregation operator: union message parts (columns ``keys`` +
    ``mval``), min/sum per key, collect as (keys..., val)."""
    if not parts:
        return _empty(keys + ["val"])
    allm = parts[0]
    for p in parts[1:]:
        allm = allm.unionByName(p)
    agg = F.min("mval") if spec.agg == "min" else F.sum("mval")
    return allm.groupBy(*keys).agg(agg.alias("val")).toPandas()


def edges_to_spark(spark: SparkSession, edges: pd.DataFrame) -> DataFrame:
    """Lift the current graph version's edges into a (persisted) Spark DF."""
    return _upload(spark, edges, ["src", "dst", "weight"]).persist()


def sender_states(
    states: pd.DataFrame, spec: QuerySpec, outdeg: pd.Series
) -> pd.DataFrame:
    """Join input from (qid, v, val, ...) states: the finite ones, keyed by
    sender ``w``, with PR's sender out-degree attached as ``aux``."""
    st = states[np.isfinite(states["val"].to_numpy(np.float64))].rename(columns={"v": "w"})
    if spec.needs_outdeg:
        st = st.assign(aux=st["w"].map(outdeg).fillna(1.0))
    return st


def _message_col(spec: QuerySpec):
    """The Join operator's message expression f(state_w, edge)."""
    if spec.kind == "sssp":
        return F.col("val") + F.col("weight")
    if spec.kind in ("khop", "rpq"):
        return F.col("val") + F.lit(1.0)
    if spec.kind == "wcc":
        return F.col("val")
    if spec.kind == "pr":
        return F.lit(0.85) * F.col("val") / F.col("aux")
    raise ValueError(spec.kind)


def _states_df(spark: SparkSession, states: pd.DataFrame, extra: list[str]) -> DataFrame:
    cols = ["qid", "w", "val"] + (["aux"] if "aux" in states.columns else []) + extra
    return _upload(spark, states, cols)


def aggregate_at(
    spark: SparkSession,
    edges_sp: DataFrame,
    frontier: pd.DataFrame,
    states: pd.DataFrame,
    base: pd.DataFrame,
    spec: QuerySpec,
) -> pd.DataFrame:
    """Recompute the aggregation for every frontier vertex.

    frontier: (qid, v[, t]) — vertices whose aggregation reruns.
    states:   (qid, w, val[, aux][, t]) — in-neighbour states (aux = sender
              out-degree for PR). With ``t``, a frontier row at t reads
              the states at t − 1; without, all states are the previous
              iteration's.
    base:     (qid, v[, t], val) — base contributions for frontier vertices.

    Returns (qid, v[, t], val). Frontier vertices with no messages and no
    base are absent (= unreachable / +inf to the caller).
    """
    keys = ["qid", "v"] + (["t"] if "t" in frontier.columns else [])
    if not len(frontier):
        return _empty(keys + ["val"])
    fr = _upload(spark, frontier, keys)
    parts = []
    if len(states):
        st = _states_df(spark, states, keys[2:])
        on = (edges_sp["src"] == st["w"]) & (fr["qid"] == st["qid"])
        if "t" in keys:
            on &= fr["t"] == st["t"] + 1
        msgs = (
            edges_sp.join(fr, on=edges_sp["dst"] == fr["v"], how="inner")
            .join(st, on=on, how="inner")
            .select(*[fr[k].alias(k) for k in keys], _message_col(spec).alias("mval"))
        )
        parts.append(msgs)
    if len(base):
        parts.append(_upload(spark, base, keys + ["val"]).withColumnRenamed("val", "mval"))
    return _aggregate(parts, keys, spec)


def _sent(spark, edges_sp, changed, spec, keys) -> list[DataFrame]:
    """The Join operator from the sender side: one message per (changed w,
    out-edge), keyed by ``keys`` (receiver ``v`` = the edge's dst)."""
    if not len(changed):
        return []
    st = _states_df(spark, changed, [k for k in keys if k == "it"])
    cols = [(edges_sp["dst"] if k == "v" else st[k]).alias(k) for k in keys]
    msgs = edges_sp.join(st, on=edges_sp["src"] == st["w"], how="inner").select(
        *cols, _message_col(spec).alias("mval")
    )
    return [msgs]


def push_messages(
    spark: SparkSession,
    edges_sp: DataFrame,
    changed: pd.DataFrame,
    spec: QuerySpec,
) -> pd.DataFrame:
    """Messages from changed vertices to out-neighbours, agg'd per target.

    changed: (qid, w, val[, aux]) — the frontier's new states.
    Returns (qid, v, val): per-destination aggregated incoming messages.
    """
    keys = ["qid", "v"]
    return _aggregate(_sent(spark, edges_sp, changed, spec, keys), keys, spec)


def raw_messages(
    spark: SparkSession,
    edges_sp: DataFrame,
    changed: pd.DataFrame,
    spec: QuerySpec,
) -> pd.DataFrame:
    """Un-aggregated Join output: one message row per (changed w, out-edge).

    VDC materializes these as its δJ difference store — precisely the
    collection the JOD optimization drops. Returns (qid, v, w, val), plus
    the sender's ``it`` when ``changed`` has that column (bulk δJ builds).
    Parallel edges from the same sender combine under the aggregator
    (min/sum are associative), so the δJ trace stays keyed by sender.
    """
    keys = ["qid", "v", "w"] + (["it"] if "it" in changed.columns else [])
    return _aggregate(_sent(spark, edges_sp, changed, spec, keys), keys, spec)


def aggregate_msgs(
    spark: SparkSession,
    msgs: pd.DataFrame,
    base: pd.DataFrame,
    spec: QuerySpec,
) -> pd.DataFrame:
    """Aggregate pre-materialized messages (VDC's reassembled J) plus base."""
    keys = ["qid", "v"]
    frames = [f[keys + ["val"]] for f in (msgs, base) if len(f)]
    if not frames:
        return _empty(keys + ["val"])
    allm = _upload(spark, pd.concat(frames, ignore_index=True), keys + ["val"])
    return _aggregate([allm.withColumnRenamed("val", "mval")], keys, spec)
