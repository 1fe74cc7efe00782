"""Grid containers and certificate plumbing."""
import numpy as np
import pytest

from pqsing import CertificateReport, GridFunction, same_grid


def test_grid_function_validation():
    nodes = np.linspace(0.0, 1.0, 9)
    GridFunction(nodes, np.zeros(9))
    with pytest.raises(ValueError):
        GridFunction(nodes, np.zeros(8))
    with pytest.raises(ValueError):
        GridFunction(nodes[::-1], np.zeros(9))
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 0.1, 0.5, 1.0]), np.zeros(4))  # non-uniform
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0]), np.array([1.0]))


def test_grid_function_accessors():
    g = GridFunction(np.linspace(0.0, 2.0, 5), np.array([1.0, -3.0, 2.0, 0.5, 0.0]))
    assert g.n == 4
    assert len(g) == 5
    assert g.h == pytest.approx(0.5)
    assert g.sup_norm() == 3.0
    assert g.interp(0.25) == pytest.approx(-1.0)
    g2 = g.with_values(np.zeros(5))
    assert same_grid(g.nodes, g2.nodes)
    assert g2.sup_norm() == 0.0
    assert not same_grid(g.nodes, np.linspace(0.0, 1.0, 5))
    assert not same_grid(g.nodes, g.nodes[:-1])


def test_certificate_report_summary():
    c = CertificateReport(kind="ordering", margins=np.array([0.5, 0.2, 1.0]),
                          passed=True, tolerance=1e-10,
                          detail={"note": "x", "arr": np.zeros(3), "val": 2.0})
    assert c.min_margin == pytest.approx(0.2)
    assert c.max_margin == pytest.approx(1.0)
    s = c.summary()
    assert s["passed"] is True
    assert s["min_margin"] == pytest.approx(0.2)
    assert s["note"] == "x"
    assert "arr" not in s          # non-scalar detail stays out of the summary
    assert s["val"] == 2.0
