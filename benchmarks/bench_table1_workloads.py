"""T1 — Table 1: workload description and problem sizes."""

from benchmarks.conftest import report
from repro.analysis.tables import render_table1


def test_render_table1_matches_paper_grid():
    table = render_table1()
    report(table)
    # Spot-check the values Table 1 prints.
    assert "2^19" in table and "2^23" in table
    assert "64x64" in table and "1024x1024" in table
    assert "10K" in table and "12K" in table
    assert "256x288" in table and "1024x576" in table
    assert "32x32" in table and "128x128" in table
