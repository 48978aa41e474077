"""Grids and sampled scalar fields.

Two discretization carriers are used everywhere: a radial grid for atomic
quantities (quadrature weights for int 4 pi r^2 f(r) dr) and a uniform 3D
box for molecules. Fields are immutable after construction. SolverError,
the base of every solver's failure, lives here because every solver
imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POINT_BUDGET = 16_000_000  # nodes a Grid3D may hold


class GridError(ValueError):
    """Contract violation on a grid or field."""


class SolverError(RuntimeError):
    """An iterative or linear solve failed; carries its history as floats."""

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = [float(v) for v in history]


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii with weights for int_0^inf 4 pi r^2 f dr."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.size < 2:
            raise GridError("radial grid needs at least two nodes")
        if nodes[0] <= 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise GridError("radial nodes must be strictly increasing and > 0")
        if weights.shape != nodes.shape or np.any(weights <= 0.0):
            raise GridError("weights must be positive and match nodes")
        nodes.setflags(write=False)
        weights.setflags(write=False)

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature of int 4 pi r^2 values(r) dr."""
        return float(np.dot(self.weights, values))

    @staticmethod
    def logarithmic(r_min: float, r_max: float, n: int) -> "RadialGrid":
        """Log-spaced nodes with composite-Simpson weights in log r."""
        if not (0.0 < r_min < r_max) or n < 3:
            raise GridError("need 0 < r_min < r_max and n >= 3")
        if n % 2 == 0:
            n += 1  # Simpson needs an odd node count
        t = np.linspace(np.log(r_min), np.log(r_max), n)
        r = np.exp(t)
        dt = t[1] - t[0]
        w = np.ones(n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= dt / 3.0
        # int 4 pi r^2 f dr = int 4 pi r^3 f d(log r)
        return RadialGrid(nodes=r, weights=4.0 * np.pi * r**3 * w)


@dataclass(frozen=True)
class Grid3D:
    """Uniform cubic-cell box. Nodes are at origin + h * (i, j, k)."""

    origin: np.ndarray
    h: float
    dims: tuple

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=float)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not 0.0 < self.h < math.inf:
            raise GridError("grid spacing h must be positive and finite")
        if not np.all(np.isfinite(origin)):
            raise GridError("grid origin must be finite")
        if len(self.dims) != 3 or any(d < 2 for d in self.dims):
            raise GridError("dims must be three integers >= 2")
        n = self.dims[0] * self.dims[1] * self.dims[2]
        if n > POINT_BUDGET:
            raise GridError(f"grid has {n} points, budget is {POINT_BUDGET}")
        origin.setflags(write=False)

    @property
    def shape(self) -> tuple:
        return self.dims

    @property
    def n_points(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def cell_volume(self) -> float:
        return self.h**3

    def axes(self):
        return tuple(
            self.origin[k] + self.h * np.arange(self.dims[k]) for k in range(3)
        )

    def meshgrid(self):
        ax = self.axes()
        return np.meshgrid(*ax, indexing="ij")

    def squared_distance(self, point) -> np.ndarray:
        """|x - point|^2 at every node, summed in x, y, z order."""
        x, y, z = (a - p for a, p in zip(self.axes(), point))
        return x[:, None, None] ** 2 + y[None, :, None] ** 2 + z**2

    def upper_corner(self) -> np.ndarray:
        return self.origin + self.h * (np.asarray(self.dims) - 1)

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(
            np.all(p - self.origin >= -1e-12)
            and np.all(self.upper_corner() - p >= -1e-12)
        )

    def min_face_distance(self, point) -> float:
        """Distance from a point to the nearest box face."""
        p = np.asarray(point, dtype=float)
        lo = p - self.origin
        hi = self.upper_corner() - p
        return float(min(lo.min(), hi.min()))

    def integrate(self, values: np.ndarray) -> float:
        return float(values.sum()) * self.cell_volume

    def index_of(self, point) -> tuple:
        """Nearest-node index of a point inside the box."""
        idx = np.rint((np.asarray(point, dtype=float) - self.origin) / self.h)
        return tuple(int(i) for i in idx)

    @staticmethod
    def cube(center, half_extent: float, n: int) -> "Grid3D":
        h = 2.0 * half_extent / (n - 1)
        origin = np.asarray(center, dtype=float) - half_extent
        return Grid3D(origin=origin, h=h, dims=(n, n, n))


def fold_weights(n: int) -> np.ndarray:
    """Weights of nodes n // 2 to n - 1, a mirrored axis' fold: 2, but 1 on a centre node."""
    return np.array([1.0] * (n % 2) + [2.0] * (n // 2))


def weighted_sum(a: np.ndarray, weights) -> float:
    """Sum of a, each node weighed by the product of its per-axis weights."""
    for w in reversed(weights):
        a = np.reshape(a, (-1, w.size)) @ w
    return float(a[0])


class FoldedGrid:
    """The fold of a Grid3D along its mirrored axes, a stand-in for the grid.

    Along a mirrored axis of n nodes the fold keeps nodes n // 2 to n - 1,
    from the centre plane to the outer face. A grid array symmetric about
    those planes is determined by its fold a[index], and `integrate`
    weighs each node by its `fold_weights` to give the grid integral. With
    no mirrored axis the fold is the grid, and `integrate` is the grid's.
    """

    def __init__(self, grid: Grid3D, mirror):
        self.grid, self.mirror = grid, tuple(bool(m) for m in mirror)
        self.h, self.cell_volume = grid.h, grid.cell_volume
        self.index = tuple(slice(n // 2, None) if m else slice(None)
                           for n, m in zip(grid.shape, self.mirror))
        self.shape = tuple(n - n // 2 if m else n for n, m in zip(grid.shape, self.mirror))
        self.weights = tuple(fold_weights(n) if m else np.ones(n)
                             for n, m in zip(grid.shape, self.mirror))

    def axes(self):
        return tuple(a[s] for a, s in zip(self.grid.axes(), self.index))

    squared_distance = Grid3D.squared_distance  # on the fold's own axes

    def integrate(self, values: np.ndarray) -> float:
        if not any(self.mirror):
            return self.grid.integrate(values)
        return weighted_sum(values, self.weights) * self.cell_volume


@dataclass(frozen=True)
class ScalarField:
    """One real value per grid node: a density (Bohr^-3) or potential (Ha)."""

    grid: object
    values: np.ndarray
    kind: str = "generic"  # "density" | "potential" | "generic"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        expected = (
            self.grid.nodes.shape
            if isinstance(self.grid, RadialGrid)
            else self.grid.shape
        )
        if values.shape != expected:
            raise GridError(f"values shape {values.shape} != grid shape {expected}")
        if not np.all(np.isfinite(values)):
            raise GridError("field values must be finite")
        if self.kind == "density" and np.any(values < 0.0):
            raise GridError("density fields must be nonnegative")
        values.setflags(write=False)

    def integrate(self) -> float:
        return self.grid.integrate(self.values)


def trilinear_sample(field: ScalarField, points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of a 3D field at arbitrary points."""
    grid = field.grid
    if not isinstance(grid, Grid3D):
        raise GridError("trilinear sampling needs a 3D field")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rel = (pts - grid.origin) / grid.h
    dims = np.asarray(grid.dims)
    if np.any(rel < -1e-9) or np.any(rel > dims - 1 + 1e-9):
        raise GridError("sample point outside the box")
    rel = np.clip(rel, 0.0, dims - 1 - 1e-12)
    i0 = rel.astype(int)
    f = rel - i0
    v = field.values
    out = np.zeros(len(pts))
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                w = (
                    (f[:, 0] if dx else 1 - f[:, 0])
                    * (f[:, 1] if dy else 1 - f[:, 1])
                    * (f[:, 2] if dz else 1 - f[:, 2])
                )
                out += w * v[i0[:, 0] + dx, i0[:, 1] + dy, i0[:, 2] + dz]
    return out


def fibonacci_sphere(center, radius: float, n: int = 256) -> np.ndarray:
    """Deterministic quasi-uniform points on a sphere (Fibonacci lattice)."""
    if n < 1:
        raise GridError("need at least one sphere sample")
    k = np.arange(n)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * k + 1.0) / n
    theta = 2.0 * np.pi * k / golden
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([s * np.cos(theta), s * np.sin(theta), z], axis=1)
    return np.asarray(center, dtype=float) + radius * pts
