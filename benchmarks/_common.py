"""Shared workloads and helpers for the benchmark suite.

Every benchmark module reproduces one table or figure of the paper's
evaluation (see docs/paper_map.md for the per-experiment index).  The datasets built
here are laptop-scale versions of the paper's synthetic sweeps: the tuple
ratio / feature ratio / uniqueness-degree axes are the paper's, the absolute
sizes are shrunk so the whole suite finishes in minutes.

Each module benchmarks the materialized version ("M" in the paper's plots) and
the Morpheus-factorized version ("F") of the same operation with
pytest-benchmark; the speed-up the paper reports is the ratio of the two rows
in the pytest-benchmark table (they are grouped per parameter point).  In
addition, several modules print figure-style series via
:mod:`repro.bench.reporting` so the captured benchmark output contains the
same rows the paper's figures plot.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from typing import Dict, Optional, Tuple

import numpy as np

from repro.datasets.realworld import RealWorldDataset
from repro.datasets.registry import load_real_dataset
from repro.datasets.synthetic import (
    MNDataset,
    PKFKDataset,
    SyntheticMNConfig,
    SyntheticPKFKConfig,
    generate_mn,
    generate_pk_fk,
)

# Default laptop-scale sweep sizes.  The paper uses n_R = 10^6 and n_S up to
# 2x10^7; we keep the same TR / FR axes over a base of n_R = 2000.
PKFK_ATTRIBUTE_ROWS = 2_000
PKFK_ENTITY_FEATURES = 20
MN_ROWS = 1_500
MN_FEATURES = 40

#: Parameter points used by the operator-level figure benchmarks
#: (a representative corner of each region of Figure 3).
PKFK_POINTS: Tuple[Tuple[float, float], ...] = ((2, 0.5), (5, 1), (10, 2), (20, 4))
MN_UNIQUENESS_POINTS: Tuple[float, ...] = (0.01, 0.1, 0.5)


@functools.lru_cache(maxsize=None)
def pkfk_dataset(tuple_ratio: float, feature_ratio: float,
                 attribute_rows: int = PKFK_ATTRIBUTE_ROWS,
                 entity_features: int = PKFK_ENTITY_FEATURES,
                 seed: int = 0) -> PKFKDataset:
    """Cached synthetic PK-FK dataset for one (TR, FR) sweep point."""
    config = SyntheticPKFKConfig.from_ratios(
        tuple_ratio=tuple_ratio, feature_ratio=feature_ratio,
        num_attribute_rows=attribute_rows, num_entity_features=entity_features,
        seed=seed,
    )
    return generate_pk_fk(config)


@functools.lru_cache(maxsize=None)
def mn_dataset(uniqueness_degree: float, num_rows: int = MN_ROWS,
               num_features: int = MN_FEATURES, seed: int = 0) -> MNDataset:
    """Cached synthetic M:N dataset for one uniqueness-degree sweep point."""
    domain = max(1, int(round(uniqueness_degree * num_rows)))
    config = SyntheticMNConfig(num_rows=num_rows, num_features=num_features,
                               domain_size=domain, seed=seed)
    return generate_mn(config)


@functools.lru_cache(maxsize=None)
def real_dataset(name: str, scale: float = 0.01, seed: int = 0) -> RealWorldDataset:
    """Cached stand-in for one of the seven real datasets of Table 6."""
    return load_real_dataset(name, scale=scale, seed=seed)


@functools.lru_cache(maxsize=None)
def materialized_cache(tuple_ratio: float, feature_ratio: float) -> np.ndarray:
    """Cached materialized matrix for a PK-FK sweep point."""
    return pkfk_dataset(tuple_ratio, feature_ratio).materialized


def lmm_operand(num_cols: int, width: int = 2, seed: int = 7) -> np.ndarray:
    """Deterministic right-hand operand for LMM benchmarks."""
    return np.random.default_rng(seed).standard_normal((num_cols, width))


def rmm_operand(num_rows: int, width: int = 2, seed: int = 11) -> np.ndarray:
    """Deterministic left-hand operand for RMM benchmarks."""
    return np.random.default_rng(seed).standard_normal((width, num_rows))


def point_id(point: Tuple[float, float]) -> str:
    """Readable pytest parameter id for a (TR, FR) point."""
    return f"TR{point[0]:g}-FR{point[1]:g}"


def group_name(figure: str, operator: str, point) -> str:
    """Benchmark group so M and F land next to each other in the report."""
    return f"{figure} {operator} @ {point}"


def blas_threads() -> Optional[int]:
    """The thread count of the OpenBLAS bundled with NumPy, else ``None``.

    Read through the library's own getter, so a timing gate can print the
    BLAS threading it ran under without an extra package.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return int(getter())
    return None
