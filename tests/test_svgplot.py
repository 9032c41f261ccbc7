import re

import numpy as np
import pytest

from lrlab.svgplot import line_plot


def test_log_axis_refuses_non_positive_data(tmp_path):
    path = tmp_path / "p.svg"
    series = [(np.array([1.0, 2.0]), np.array([0.0, 1.0]), "a")]
    with pytest.raises(ValueError, match="log-scale plots require positive data"):
        line_plot(path, series, logy=True)
    assert not path.exists()


def test_a_single_point_sits_mid_plot(tmp_path):
    """A flat x or y range is widened by 0.5 each way, so one point plots at
    the middle of the frame rather than dividing by zero."""
    path = tmp_path / "p.svg"
    line_plot(path, [(np.array([10.0]), np.array([3.0]), "one")], logx=True)
    (circle,) = re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)"', path.read_text())
    # the frame spans x 70..620 and y 40..425 of the 640 x 480 canvas
    assert tuple(map(float, circle)) == (345.0, 232.5)
