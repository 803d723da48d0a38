"""Exact difference traces on the paper's running example (Tables 3 and 4).

These tests pin the engines to the worked example: the dynamic graph of
Fig. 2 with updates (a,d): 20→100 at G1 and (b,c): 10→100 at G2. Vertex
ids a..e map to 0..4. Our store is the eager-merged, positive-only,
sparse form of Table 3's trace (§4.2): ∞ rows are implicit and the
graph-version dimension is merged away.
"""
import pandas as pd
import pytest

from repro.core.engine import DCJODEngine
from repro.core.specs import sssp_spec
from repro.core.vdc import VDCEngine
from repro.graphs.generators import figure2_example
from repro.graphs.updates import Batch

COLS = ["src", "dst", "label", "weight", "mult"]


def _batch(rows):
    return Batch(pd.DataFrame(rows, columns=COLS))


@pytest.fixture(params=[DCJODEngine, VDCEngine], ids=["jod", "vdc"])
def engines(request, spark):
    g0, b1, b2 = figure2_example()
    eng = request.param(spark, sssp_spec({0: 0}), g0.edges)
    yield eng, _batch(b1), _batch(b2)
    eng.close()


def _store_dict(eng):
    return {
        (int(r.v), int(r.it)): r.val for r in eng.store.df.itertuples(index=False)
    }


class TestG0Trace:
    def test_initial_store_matches_table3_g0(self, engines):
        eng, _, _ = engines
        assert _store_dict(eng) == {
            (0, 0): 0.0,
            (1, 1): 30.0, (3, 1): 20.0, (4, 1): 10.0,
            (2, 2): 40.0,
        }


class TestG1Trace:
    def test_store_after_g1(self, engines):
        """§4.2: after G1, d's merged differences are {(1,100), (3,50)}."""
        eng, b1, _ = engines
        eng.apply_batch(b1)
        s = _store_dict(eng)
        assert s[(3, 1)] == 100.0 and s[(3, 3)] == 50.0
        # untouched vertices keep their G0 rows
        assert s[(1, 1)] == 30.0 and s[(2, 2)] == 40.0 and s[(4, 1)] == 10.0
        assert len(s) == 6

    def test_final_distances_after_g1(self, engines):
        eng, b1, _ = engines
        eng.apply_batch(b1)
        got = dict(eng.final_states().set_index("v")["val"])
        assert got == {0: 0.0, 1: 30.0, 2: 40.0, 3: 50.0, 4: 10.0}


class TestG2Trace:
    def test_store_after_g2(self, engines):
        """Table 3 G2 column: c's diff at 2 becomes 120; d's iter-3 diff
        (-(d,50) +(d,100)) cancels back to the iter-1 value and is removed."""
        eng, b1, b2 = engines
        eng.apply_batch(b1)
        eng.apply_batch(b2)
        s = _store_dict(eng)
        assert s == {
            (0, 0): 0.0,
            (1, 1): 30.0, (3, 1): 100.0, (4, 1): 10.0,
            (2, 2): 120.0,
        }

    def test_final_distances_after_g2(self, engines):
        eng, b1, b2 = engines
        eng.apply_batch(b1)
        eng.apply_batch(b2)
        got = dict(eng.final_states().set_index("v")["val"])
        assert got == {0: 0.0, 1: 30.0, 2: 120.0, 3: 100.0, 4: 10.0}


class TestExample1JoinFanout:
    """Example 1: d's two state diffs at ⟨G1,1⟩ fan out to deg(d)=2
    neighbours in δJ — visible as VDC's δJ rows for receivers c and e."""

    def test_vdc_j_rows_fan_out(self, spark):
        g0, b1, _ = figure2_example()
        eng = VDCEngine(spark, sssp_spec({0: 0}), g0.edges)
        try:
            before = eng.jstore.copy()
            eng.apply_batch(_batch(b1))
            # d (=3) has out-edges to c (=2) and e (=4): its change at iter 1
            # must be reflected in messages to both at iter 2.
            j = eng.jstore.df
            d_msgs = j[(j["w"] == 3) & (j["it"] == 2)]
            assert set(d_msgs["v"]) == {2, 4}
        finally:
            eng.close()


class TestLocalization:
    def test_unrelated_update_is_cheap(self, spark):
        """DC's key property: updates far from the source trigger ~no work."""
        g0, _, _ = figure2_example()
        eng = DCJODEngine(spark, sssp_spec({0: 0}), g0.edges)
        try:
            # insert an edge between two fresh vertices unreachable from a
            b = _batch([(7, 8, "e", 5, +1)])
            m = eng.apply_batch(b)
            assert m["n_changed"] == 0
            assert _store_dict(eng)[(0, 0)] == 0.0
        finally:
            eng.close()
