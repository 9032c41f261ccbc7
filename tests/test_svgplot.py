import hashlib
import re

import numpy as np
import pytest

from lrlab.svgplot import line_plot

LABELS = {"xlabel": "x", "ylabel": "y", "title": "t"}


def test_log_axis_refuses_non_positive_data(tmp_path):
    path = tmp_path / "p.svg"
    series = [(np.array([1.0, 2.0]), np.array([0.0, 1.0]), "a")]
    with pytest.raises(ValueError, match="log-scale plots require positive data"):
        line_plot(path, series, **LABELS, logy=True)
    assert not path.exists()


def test_a_single_point_sits_mid_plot(tmp_path):
    """A flat x or y range is widened by 0.5 each way, so one point plots at
    the middle of the frame rather than dividing by zero."""
    path = tmp_path / "p.svg"
    series = [(np.array([10.0]), np.array([3.0]), "one")]
    line_plot(path, series, **LABELS, logx=True)
    (circle,) = re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)"', path.read_text())
    # the frame spans x 70..620 and y 40..425 of the 640 x 480 canvas
    assert tuple(map(float, circle)) == (345.0, 232.5)


def test_a_two_series_list_is_refused(tmp_path):
    path = tmp_path / "p.svg"
    xs = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="too many values to unpack"):
        line_plot(path, [(xs, xs, "a"), (xs, 2 * xs, "b")], **LABELS)
    assert not path.exists()


@pytest.mark.parametrize(
    "xs, ys, label, kwargs, digest",
    [
        (
            [1.0, 10.0, 100.0],
            [0.5, 0.05, 2e-3],
            "delta_ad",
            {"xlabel": "V_LR", "ylabel": "delta_ad", "title": "log-log",
             "logx": True, "logy": True},
            "cae5d3d4f3d02356f0b2a94af9dc34b8fed86d42f3221b9cad3d1deddb8bbd9b",
        ),
        (
            [0.0, 1.0, 2.0, 3.0],
            [1.0, 0.1, 3e-3, 2e-5],
            "|U(T)| from 0",
            {"xlabel": "level", "ylabel": "amplitude", "title": "lin-log",
             "logy": True},
            "a237967ec08910db3e80006c75d3dcee85b2c77f155e2702572be5939c75d739",
        ),
    ],
    ids=["log-log", "lin-log"],
)
def test_plot_bytes_are_pinned(tmp_path, xs, ys, label, kwargs, digest):
    """The SVGs are byte-stable artefacts: a refactor of the writer must
    leave these two small plots bit for bit as they were."""
    path = tmp_path / "p.svg"
    line_plot(path, [(np.array(xs), np.array(ys), label)], **kwargs)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
