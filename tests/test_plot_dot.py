"""ASCII plotting."""

import pytest

from repro.analysis.asciiplot import plot


def test_plot_basic_shape():
    out = plot([1, 2, 3, 4], {"up": [1.0, 2.0, 3.0, 4.0]}, width=20, height=6)
    lines = out.splitlines()
    assert lines[0].endswith("|" + " " * 19 + "*")  # max at top right
    assert "*=up" in lines[-1]
    assert "4" in lines[0]  # ymax label


def test_plot_two_series_legend():
    out = plot([1, 2], {"a": [0.0, 1.0], "b": [1.0, 0.0]}, width=10, height=4)
    assert "*=a" in out and "o=b" in out


def test_plot_log_x():
    sizes = [2**k for k in range(8, 20)]
    fracs = [k / 20 for k in range(12)]
    out = plot(sizes, {"bw": fracs}, logx=True)
    assert "(log x)" in out


def test_plot_flat_series():
    out = plot([0, 1], {"flat": [2.0, 2.0]}, width=10, height=4)
    assert "*" in out  # does not divide by zero


def test_plot_validation():
    with pytest.raises(ValueError):
        plot([1], {"a": [1.0]})
    with pytest.raises(ValueError):
        plot([1, 2], {})
    with pytest.raises(ValueError):
        plot([1, 2], {"a": [1.0]})
    with pytest.raises(ValueError):
        plot([0, 1], {"a": [1.0, 2.0]}, logx=True)
    with pytest.raises(ValueError):
        plot([1, 2], {"a": [1.0, 2.0]}, width=2)


def test_plot_fig5_series():
    from repro.experiments import fig5_netpipe

    sizes, na, s2 = fig5_netpipe.curves()
    out = plot(sizes, {"NaCL": na, "Stampede2": s2}, logx=True,
               title="Fig. 5 (ASCII)")
    assert out.startswith("Fig. 5 (ASCII)")

