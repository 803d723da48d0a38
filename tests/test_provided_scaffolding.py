"""Smoke tests for the provided scaffolding (the DuckDB oracle)."""
import pytest

from repro import oracle
from tests.helpers import tiny_graph


@pytest.fixture
def edges(spark):
    return spark.createDataFrame(tiny_graph(seed=3))


class TestOracle:
    def test_agreement_passes(self, spark, edges):
        got = edges.groupBy("src").count().withColumnRenamed("count", "n")
        oracle.assert_equivalent(
            got,
            "SELECT src, COUNT(*) AS n FROM e GROUP BY src",
            e=edges,
        )

    def test_disagreement_fails(self, spark, edges):
        got = edges.groupBy("src").count().withColumnRenamed("count", "n")
        with pytest.raises(AssertionError):
            oracle.assert_equivalent(
                got,
                "SELECT src, COUNT(*) + 1 AS n FROM e GROUP BY src",
                e=edges,
            )
