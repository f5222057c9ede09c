"""Program names that the benchmark's tracer looks up (``bench/tracing.py``).

The tracer wraps each ``BOUNDARIES`` entry from outside ``src/`` and reads
the iteration count of ``solvers._pcg`` from ``result[2]``; a boundary that
stops resolving silently drops its layer from the per-layer metrics.
"""

import os
import sys

import numpy as np
from scipy import sparse

from graphhvi import solvers

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))
import tracing  # noqa: E402


def test_every_boundary_resolves_to_a_callable():
    absent = [where for _, where in tracing.BOUNDARIES
              if tracing._resolve(where) is None]
    assert absent == []


def test_pcg_returns_solution_residual_and_iterations():
    A = sparse.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    rhs = np.array([1.0, 2.0])
    x, rel, iters = solvers._pcg(A, np.ones(2), rhs, 1e-12, 50)
    assert type(iters) is int and iters > 0
    assert rel <= 1e-12
    np.testing.assert_allclose(A @ x + x, rhs, atol=1e-12)
