"""Seeded inputs: the workload's matrices, right-hand sides and oracles.

Everything here runs before any timed region.  The library receives
only the generated CSR matrices and vectors.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from repro import CSRMatrix
from repro.matrix.generators import (
    erdos_renyi_lower,
    grid_laplacian_2d,
    grid_laplacian_3d,
    narrow_band_lower,
    rcm_mesh,
)
from repro.matrix.ichol import ichol0


def sub_seed(seed: int, *tags: int) -> int:
    """A 32-bit seed derived from the run seed and integer tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _chain(n: int, seed: int) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    lower = sp.diags(
        [rng.uniform(-0.5, 0.5, n - 1), rng.uniform(1.0, 2.0, n)],
        [-1, 0], format="csr",
    )
    return CSRMatrix.from_scipy(lower)


def build_matrix(spec: dict, seed: int) -> CSRMatrix:
    """The lower-triangular matrix a system spec describes."""
    kind = spec["kind"]
    if kind == "erdos_renyi":
        return erdos_renyi_lower(spec["n"], spec["p"], seed=seed)
    if kind == "narrow_band":
        return narrow_band_lower(spec["n"], spec["p"], spec["band"],
                                 seed=seed)
    if kind in ("fem_mesh", "ic0_fem"):
        mesh = rcm_mesh(
            spec["levels"], spec["width"], reach=1,
            lateral_prob=spec["lateral_prob"],
            long_edge_prob=spec.get("long_edge_prob", 0.0), seed=seed,
        )
        return ichol0(mesh) if kind == "ic0_fem" else mesh.lower_triangle()
    if kind == "grid2d":
        return grid_laplacian_2d(spec["nx"], spec["ny"]).lower_triangle()
    if kind == "grid3d":
        return grid_laplacian_3d(
            spec["nx"], spec["ny"], spec["nz"]
        ).lower_triangle()
    if kind == "ic0_grid":
        return ichol0(grid_laplacian_2d(spec["nx"], spec["ny"]))
    if kind == "chain":
        return _chain(spec["n"], seed)
    raise ValueError(f"unknown system kind {kind!r}")


class System:
    """One solve target: key, matrix, seeded RHS pool and scipy oracle."""

    def __init__(self, key: str, lower: CSRMatrix, rhs: list[np.ndarray]):
        self.key = key
        self.lower = lower
        self.rhs = rhs
        scipy_lower = lower.to_scipy().tocsr()
        self.reference = [
            spsolve_triangular(scipy_lower, b, lower=True) for b in rhs
        ]


def build_corpus(specs: list[dict], seed: int, n_rhs: int) -> list[System]:
    """The workload's systems for run seed ``seed``.

    Each system's sparsity structure is fixed by its spec (built with
    the spec's ``structure_seed``), so schedules, superstep counts and
    simulated speed-ups are properties of the workload.  The run seed
    draws the numbers: a positive row scaling of the matrix, which
    keeps its structure, and the right-hand sides.
    """
    systems = []
    for index, spec in enumerate(specs):
        base = build_matrix(spec, spec["structure_seed"])
        rng = np.random.default_rng(sub_seed(seed, 1, index))
        scale = rng.uniform(0.5, 2.0, base.n)
        lower = CSRMatrix(
            base.n, base.indptr, base.indices,
            base.data * np.repeat(scale, base.row_nnz()),
        )
        rhs = [rng.standard_normal(lower.n) for _ in range(n_rhs)]
        systems.append(System(spec["key"], lower, rhs))
    return systems


def relative_error(x: np.ndarray, reference: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(reference))), 1e-300)
    return float(np.max(np.abs(x - reference))) / scale
