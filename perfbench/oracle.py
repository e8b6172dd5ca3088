"""The correctness oracle: the math, never another SPL backend.

Every served response and every compiled kernel's output is compared
with ``numpy.fft`` or with the dense transform matrix from
``repro.formulas`` (which builds the matrices from their textbook
definitions, not from SPL formulas).  The error budget follows the
measured error curve of the paper's Fig. 6 — relative L2 error of
order ``sqrt(log2 n) * eps`` — with a fixed constant, so a kernel
that is seven orders of magnitude less accurate than the math allows
fails here instead of passing a blanket 1e-6 bound.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative L2 error budget is ``BUDGET_C * sqrt(log2 n) * eps``.  The
#: generated FFT and WHT kernels measure 0.6-1.0 in these units against
#: numpy; the DCT-II about 10 (its reference matrix is itself built from
#: cosines of large arguments).
BUDGET_C = 64.0

_MATRICES: dict[tuple[str, int], np.ndarray] = {}


def _matrix(transform: str, n: int) -> np.ndarray:
    key = (transform, n)
    matrix = _MATRICES.get(key)
    if matrix is None:
        from repro.formulas import dct2_matrix, wht_matrix

        matrix = wht_matrix(n) if transform == "wht" else dct2_matrix(n)
        _MATRICES[key] = matrix
    return matrix


def reference(transform: str, X: np.ndarray) -> np.ndarray:
    """The exact transform of each row of ``X`` (or of one vector)."""
    n = X.shape[-1]
    if transform == "fft":
        return np.fft.fft(X, axis=-1)
    if transform in ("wht", "dct2"):
        return X @ _matrix(transform, n).T
    raise ValueError(f"no oracle for transform {transform!r}")


def budget(n: int) -> float:
    return BUDGET_C * math.sqrt(max(1.0, math.log2(n))) * np.finfo(float).eps


def rows_ok(Y: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Per-row verdicts: relative L2 error within the budget."""
    Y = np.atleast_2d(Y)
    R = np.atleast_2d(R)
    if Y.shape != R.shape:
        return np.zeros(R.shape[0], dtype=bool)
    err = np.linalg.norm(Y - R, axis=-1)
    scale = np.linalg.norm(R, axis=-1)
    return np.isfinite(err) & (err <= budget(R.shape[-1]) * scale)


def vector_ok(y: np.ndarray, r: np.ndarray) -> bool:
    return bool(rows_ok(y, r)[0])
