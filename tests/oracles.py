"""Reference implementations the tests compare the package against."""

import numpy as np


def difference(series) -> np.ndarray:
    """out[i] = series[i+1] - series[i]; length shrinks by one. The inverse
    of evaluate.reconstruct_path (criterion 3)."""
    series = np.asarray(series)
    if len(series) < 2:
        raise ValueError("difference needs at least two points")
    return series[1:] - series[:-1]
