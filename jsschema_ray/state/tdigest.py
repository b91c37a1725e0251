"""Merging t-digest quantile sketch (Dunning & Ertl, public algorithm),
vectorized: batches of values are sorted once and compressed into centroid
clusters with the k1 (arcsine) scale function via numpy reduceat — no
per-value Python loop.

Mergeable and order-insensitive up to sketch error, so per-block partials
from the stats actor pool combine associatively; per-partition digests are
compared with a KS distance over their CDFs for the drift constraint
(SURVEY.md §2.C distribution drift).
"""

from __future__ import annotations

import struct

import numpy as np


class TDigest:
    __slots__ = ("compression", "means", "weights", "_min", "_max")

    def __init__(self, compression: float = 200.0):
        self.compression = float(compression)
        self.means = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)
        self._min = np.inf
        self._max = -np.inf

    # -- building ----------------------------------------------------------
    def add(self, values: np.ndarray, weights: np.ndarray | None = None) -> None:
        values = np.asarray(values, dtype=np.float64)
        values = values[~np.isnan(values)]
        if len(values) == 0:
            return
        if weights is None:
            weights = np.ones(len(values), dtype=np.float64)
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))
        self.means = np.concatenate([self.means, values])
        self.weights = np.concatenate([self.weights, weights])
        if len(self.means) > 8 * self.compression:
            self._compress()

    def merge(self, other: "TDigest") -> "TDigest":
        self.means = np.concatenate([self.means, other.means])
        self.weights = np.concatenate([self.weights, other.weights])
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        # lazy compress: folding thousands of partials compresses once per
        # threshold crossing, not once per merge (queries compress first)
        if len(self.means) > 8 * self.compression:
            self._compress()
        return self

    def _compress(self) -> None:
        if len(self.means) == 0:
            return
        order = np.argsort(self.means, kind="stable")
        m = self.means[order]
        w = self.weights[order]
        total = w.sum()
        q = (np.cumsum(w) - 0.5 * w) / total
        # k1 scale: k(q) = C/(2π) * asin(2q-1); centroids sharing floor(k)
        # merge — bounded cluster count ~C/2, finest resolution at the tails
        k = (self.compression / (2.0 * np.pi)) * np.arcsin(
            np.clip(2.0 * q - 1.0, -1.0, 1.0)
        )
        cluster = np.floor(k).astype(np.int64)
        starts = np.concatenate([[0], np.flatnonzero(np.diff(cluster)) + 1])
        wsum = np.add.reduceat(w, starts)
        msum = np.add.reduceat(m * w, starts) / wsum
        self.means, self.weights = msum, wsum

    # -- queries -----------------------------------------------------------
    @property
    def count(self) -> float:
        return float(self.weights.sum())

    def quantile(self, q: float) -> float:
        self._compress()
        n = len(self.means)
        if n == 0:
            return float("nan")
        if n == 1:
            return float(self.means[0])
        total = self.weights.sum()
        cum = np.cumsum(self.weights) - 0.5 * self.weights
        target = q * total
        if target <= cum[0]:
            return float(self._min if np.isfinite(self._min) else self.means[0])
        if target >= cum[-1]:
            return float(self._max if np.isfinite(self._max) else self.means[-1])
        return float(np.interp(target, cum, self.means))

    def cdf(self, xs: np.ndarray) -> np.ndarray:
        self._compress()
        xs = np.asarray(xs, dtype=np.float64)
        n = len(self.means)
        if n == 0:
            return np.full(len(xs), np.nan)
        total = self.weights.sum()
        cum = (np.cumsum(self.weights) - 0.5 * self.weights) / total
        out = np.interp(xs, self.means, cum)
        out[xs < self._min] = 0.0
        out[xs > self._max] = 1.0
        return out

    def ks_distance(self, other: "TDigest") -> float:
        """Kolmogorov–Smirnov distance sup|F1-F2| evaluated on the union of
        both digests' centroid grids (the driver-side drift metric). Both
        are compressed first, so the grid does not depend on whether a
        digest was queried or serialized before."""
        self._compress()
        other._compress()
        grid = np.unique(np.concatenate([self.means, other.means]))
        if len(grid) == 0:
            return 0.0
        return float(np.max(np.abs(self.cdf(grid) - other.cdf(grid))))

    # -- serialization -----------------------------------------------------
    def to_bytes(self) -> bytes:
        self._compress()
        head = struct.pack(">ddd", self.compression, self._min, self._max)
        return head + self.means.tobytes() + self.weights.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "TDigest":
        compression, mn, mx = struct.unpack(">ddd", b[:24])
        body = np.frombuffer(b[24:], dtype=np.float64)
        n = len(body) // 2
        d = cls(compression)
        d.means = body[:n].copy()
        d.weights = body[n:].copy()
        d._min, d._max = mn, mx
        return d
