"""Indoor propagation model on the paper's app-reported RSSI scale.

The paper's measurement figures (Figures 8 and 9) report RSSI in a
relative unit where locations next to the speaker read near 0, the far
corner of the speaker's room reads about -8, other rooms read well
below the threshold, and the thresholds chosen by the calibration app
land between -5 and -8.  We therefore model

``rssi = -K * log10(max(d, d0) / d0) - W * walls - F * floors
+ shadow(position) + noise(sample)``

with ``K`` units per distance decade, a per-wall penalty ``W``, a
per-floor-slab penalty ``F``, a *static* spatial shadowing term that is
a deterministic function of the endpoint pair (so repeated measurements
at one location agree, as they do in the paper's 16-sample averages),
and zero-mean per-sample noise covering orientation and body effects.

Hot-path architecture
---------------------
Every table and figure bottoms out here, so the model is layered as a
cached, vectorized pipeline whose outputs are *bit-identical* to the
scalar reference:

* the deterministic ``mean_rssi`` is memoized on the exact endpoint
  pair (``_mean_cache``) and its SHA-256-derived shadowing term is a
  seeded field cached per quantized key (``_shadow_cache``), so the
  hash runs once per 0.25 m cell instead of once per sample;
* ``mean_rssi_coords`` is the one vectorized pipeline: receivers as
  coordinate arrays, distances squared exactly as ``distance`` squares
  them, one walls x receivers :class:`~repro.radio.geometry.WallArray`
  pass, slab penalties where a segment pierces a slab.
  ``mean_rssi_many`` wraps it for a measurement grid (behind the
  endpoint memo), and a floor trace feeds it its walking positions
  (see :meth:`repro.home.devices.MobileDevice.record_trace`);
* ``sample_rssi_batch`` / ``average_rssi_batch`` draw all per-sample
  noise as one ``Generator.standard_normal(size)`` array, consuming the
  bitstream in exactly the order of the scalar loop.

Note on ``np.log10``: the batch path deliberately keeps numpy's log10
(array form) rather than ``math.log10``.  Numpy's scalar and array
ufunc loops agree bit-for-bit, but ``math.log10`` differs from them by
1 ulp on ~3 % of inputs — swapping it in would silently change every
table.  ``math.sqrt``/``np.sqrt`` are IEEE-exact and interchangeable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.radio.floorplan import FloorPlan
from repro.radio.geometry import Point, coordinates, distance, distances

# Bounds for the memoization layers: mobility workloads sample at a
# fresh position every time, so the dictionaries are wiped wholesale
# when they outgrow these caps (grids and repeated samples stay hot).
_MEAN_CACHE_MAX = 1 << 16
_SHADOW_CACHE_MAX = 1 << 16


@dataclass(frozen=True)
class PropagationParams:
    """Tunable propagation constants (paper-scale units)."""

    reference_rssi: float = 0.0  # reading at d0 with clear line of sight
    path_loss_per_decade: float = 9.0  # K
    reference_distance: float = 0.6  # d0, metres
    wall_penalty: float = 5.0  # W, units per interior wall
    floor_penalty: float = 6.0  # F, units per floor slab (outside weak zones)
    shadowing_sigma: float = 0.8  # static spatial shadowing
    sample_noise_sigma: float = 0.5  # per-measurement noise
    body_occlusion: float = 0.7  # extra mean loss when body blocks LOS
    rssi_floor: float = -40.0  # scanner sensitivity limit


class PropagationModel:
    """Computes speaker-Bluetooth RSSI anywhere in a floor plan."""

    def __init__(
        self,
        plan: FloorPlan,
        params: Optional[PropagationParams] = None,
        seed: int = 0,
    ) -> None:
        self.plan = plan
        self.params = params or PropagationParams()
        self._seed = int(seed)
        self._mean_cache: Dict[Tuple[float, ...], float] = {}
        self._shadow_cache: Dict[Tuple[int, ...], float] = {}
        self._plan_version = plan.version

    def _check_plan_version(self) -> None:
        if self.plan.version != self._plan_version:
            self._mean_cache.clear()
            self._shadow_cache.clear()
            self._plan_version = self.plan.version

    # -- deterministic part ------------------------------------------------
    def mean_rssi(self, tx: Point, rx: Point) -> float:
        """Expected RSSI (no sample noise), including static shadowing.

        Memoized on the exact endpoint pair; misses fall through to
        :meth:`mean_rssi_uncached`, the scalar reference.
        """
        self._check_plan_version()
        key = tx + rx
        cached = self._mean_cache.get(key)
        if cached is not None:
            return cached
        value = self.mean_rssi_uncached(tx, rx)
        if len(self._mean_cache) >= _MEAN_CACHE_MAX:
            self._mean_cache.clear()
        self._mean_cache[key] = value
        return value

    def mean_rssi_uncached(self, tx: Point, rx: Point) -> float:
        """The scalar reference computation (no memoization).

        Only the log runs in numpy (see the module note on
        ``np.log10``); its result becomes a python float at once, so the
        rest is plain IEEE double arithmetic with the same values.
        """
        p = self.params
        d = max(distance(tx, rx), p.reference_distance)
        path_loss = p.path_loss_per_decade * float(np.log10(d / p.reference_distance))
        walls = self.plan.walls_crossed(tx, rx)
        slab_loss = self.plan.slab_penalties(tx, rx, p.floor_penalty)
        rssi = (
            p.reference_rssi
            - path_loss
            - p.wall_penalty * walls
            - slab_loss
            + self._static_shadowing(tx, rx)
        )
        return float(max(rssi, p.rssi_floor))

    def mean_rssi_many(self, tx: Point, points: Sequence[Point]) -> np.ndarray:
        """Expected RSSI from ``tx`` to every receiver, vectorized.

        Bit-identical to ``[mean_rssi(tx, rx) for rx in points]``: memo
        misses go through :meth:`mean_rssi_coords`, and their results
        are written into the same memo ``mean_rssi`` reads (so a
        following sampling pass over a grid is all hits).
        """
        self._check_plan_version()
        cache = self._mean_cache
        out = np.empty(len(points), dtype=np.float64)
        missing: List[int] = []
        for index, rx in enumerate(points):
            cached = cache.get(tx + rx)
            if cached is None:
                missing.append(index)
            else:
                out[index] = cached
        if not missing:
            return out
        values = self.mean_rssi_coords(tx, coordinates([points[i] for i in missing]))
        if len(cache) + len(missing) >= _MEAN_CACHE_MAX:
            cache.clear()
        for index, value in zip(missing, values.tolist()):
            cache[tx + points[index]] = value
            out[index] = value
        return out

    def mean_rssi_coords(self, tx: Point, coords: np.ndarray) -> np.ndarray:
        """Expected RSSI from ``tx`` to every column of ``coords``, a
        (3, n) array of receiver x, y and z rows: the one vectorized
        pipeline.

        Entry *i* is bit-identical to :meth:`mean_rssi_uncached`: the
        distances square exactly as :func:`distance` does, the path-loss
        arithmetic runs as elementwise float64 ops in the scalar order,
        wall counts come from one walls x receivers
        :class:`~repro.radio.geometry.WallArray` pass, slab penalties
        are evaluated only where a segment pierces a slab, and the
        shadowing term comes from the cell memo (SHA-256 on a miss).
        The endpoint memos are neither read nor written: a walking
        receiver's coordinates never repeat.
        """
        self._check_plan_version()
        p = self.params
        plan = self.plan
        d = np.maximum(distances(tx, coords), p.reference_distance)
        path_loss = p.path_loss_per_decade * np.log10(d / p.reference_distance)
        walls = plan.wall_array.crossing_counts(tx, coords)
        slab = plan.slab_penalties_many(tx, coords, p.floor_penalty)
        rssi = p.reference_rssi - path_loss - p.wall_penalty * walls - slab
        # Shadowing cells: round(c * 4) per coordinate, as the scalar
        # path quantizes (np.rint rounds half to even, like round()).
        tx_cell = (round(tx.x * 4), round(tx.y * 4), round(tx.z * 4))
        cache = self._shadow_cache
        shadow = []
        for cell in np.rint(coords * 4).astype(np.int64).T.tolist():
            key = tx_cell + tuple(cell)
            value = cache.get(key)
            shadow.append(value if value is not None else self._shadow_miss(key))
        return np.maximum(rssi + np.array(shadow), p.rssi_floor)

    def _static_shadowing(self, tx: Point, rx: Point) -> float:
        """Deterministic zero-mean shadowing tied to the endpoint pair.

        Positions are quantized to 0.25 m so that small mobility steps
        see a smooth-ish field rather than white noise.  The SHA-256
        evaluation runs once per quantized cell; afterwards the value
        comes from the seeded field cache.
        """
        qkey = (
            round(tx.x * 4), round(tx.y * 4), round(tx.z * 4),
            round(rx.x * 4), round(rx.y * 4), round(rx.z * 4),
        )
        value = self._shadow_cache.get(qkey)
        if value is not None:
            return value
        return self._shadow_miss(qkey)

    def _shadow_miss(self, qkey: Tuple[int, ...]) -> float:
        """Hash one quantized endpoint-pair cell into the field cache."""
        key = (
            f"{self._seed}|{qkey[0]},{qkey[1]},{qkey[2]}"
            f"|{qkey[3]},{qkey[4]},{qkey[5]}"
        )
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "little") / float(2**64)  # 0..1
        # Inverse-CDF of a normal would be overkill; a scaled sum of two
        # uniforms gives a symmetric, bounded, roughly bell-shaped term.
        unit2 = int.from_bytes(digest[8:16], "little") / float(2**64)
        value = (unit + unit2 - 1.0) * self.params.shadowing_sigma * 2.0
        if len(self._shadow_cache) >= _SHADOW_CACHE_MAX:
            self._shadow_cache.clear()
        self._shadow_cache[qkey] = value
        return value

    # -- sampled measurements ----------------------------------------------
    def sample_rssi(
        self,
        tx: Point,
        rx: Point,
        rng: np.random.Generator,
        body_blocked: bool = False,
    ) -> float:
        """One noisy RSSI measurement as a scanner would report it."""
        return self.noisy_rssi(self.mean_rssi(tx, rx), rng, body_blocked)

    def noisy_rssi(
        self, mean: float, rng: np.random.Generator, body_blocked: bool = False
    ) -> float:
        """One measurement around a known ``mean``: the noise draw, then
        (if blocked) the body-occlusion draw, then the sensitivity floor."""
        p = self.params
        rssi = mean + float(rng.normal(0.0, p.sample_noise_sigma))
        if body_blocked:
            rssi -= float(abs(rng.normal(p.body_occlusion, p.body_occlusion / 2)))
        return float(max(rssi, p.rssi_floor))

    def sample_rssi_batch(
        self,
        tx: Point,
        rx: Point,
        rng: np.random.Generator,
        blocked: Sequence[bool],
    ) -> np.ndarray:
        """``len(blocked)`` noisy measurements in one vectorized draw.

        Equivalent, bit-for-bit, to calling :meth:`sample_rssi` once per
        entry of ``blocked``: the scalar loop consumes the generator's
        bitstream as ``noise_0, [body_0,] noise_1, [body_1,] ...`` and a
        single ``standard_normal(size)`` call yields exactly that
        sequence of variates, to which the same affine transforms are
        applied (``Generator.normal(loc, scale)`` is
        ``loc + scale * standard_normal()``).
        """
        p = self.params
        mean = self.mean_rssi(tx, rx)
        flags = np.asarray(blocked, dtype=bool)
        n = int(flags.size)
        if n == 0:
            return np.empty(0, dtype=np.float64)
        occluded = int(flags.sum())
        z = rng.standard_normal(n + occluded)
        # Draw i's noise variate sits after all earlier noise AND body
        # draws; a blocked draw's body variate immediately follows it.
        before = np.cumsum(flags) - flags
        noise_index = np.arange(n) + before
        rssi = mean + (0.0 + p.sample_noise_sigma * z[noise_index])
        if occluded:
            body = np.abs(
                p.body_occlusion + (p.body_occlusion / 2) * z[noise_index[flags] + 1]
            )
            rssi[flags] = rssi[flags] - body
        return np.maximum(rssi, p.rssi_floor)

    def average_rssi(
        self,
        tx: Point,
        rx: Point,
        rng: np.random.Generator,
        samples: int = 16,
        body_blocked_fraction: float = 0.25,
    ) -> float:
        """Average of ``samples`` measurements (scalar reference).

        Mirrors the paper's measurement procedure: 4 readings in each of
        4 body orientations per location, roughly a quarter of which
        have the body between phone and speaker.
        """
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples!r}")
        readings = []
        for index in range(samples):
            blocked = (index / samples) < body_blocked_fraction
            readings.append(self.sample_rssi(tx, rx, rng, body_blocked=blocked))
        return float(np.mean(readings))

    def average_rssi_batch(
        self,
        tx: Point,
        rx: Point,
        rng: np.random.Generator,
        samples: int = 16,
        body_blocked_fraction: float = 0.25,
    ) -> float:
        """Batched :meth:`average_rssi`: same value, one noise draw."""
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples!r}")
        blocked = [
            (index / samples) < body_blocked_fraction for index in range(samples)
        ]
        readings = self.sample_rssi_batch(tx, rx, rng, blocked)
        return float(np.mean(readings))

    def average_rssi_grid(
        self,
        tx: Point,
        points: Sequence[Point],
        rng: np.random.Generator,
        samples: int = 16,
        body_blocked_fraction: float = 0.25,
    ) -> np.ndarray:
        """Measurement-averaged RSSI for a whole grid in one shot.

        Bit-identical to ``[average_rssi(tx, rx, rng, ...) for rx in
        points]``: each location consumes a fixed ``samples +
        blocked_count`` stretch of the generator's bitstream, so one
        ``standard_normal`` draw reshaped to (points, draws) replays the
        per-location loop exactly; means come from the vectorized
        :meth:`mean_rssi_many` and the per-location average reduces the
        same 16 values with the same pairwise summation.
        """
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples!r}")
        count = len(points)
        if count == 0:
            return np.empty(0, dtype=np.float64)
        p = self.params
        means = self.mean_rssi_many(tx, points)
        flags = np.array(
            [(index / samples) < body_blocked_fraction for index in range(samples)],
            dtype=bool,
        )
        occluded = int(flags.sum())
        draws_per_point = samples + occluded
        z = rng.standard_normal(count * draws_per_point).reshape(count, draws_per_point)
        before = np.cumsum(flags) - flags
        noise_index = np.arange(samples) + before
        # Advanced indexing on axis 1 yields a transposed-layout array;
        # force C order so the per-row mean reduces contiguously with
        # numpy's pairwise summation, exactly like ``np.mean`` over the
        # scalar loop's 16-reading list (a strided reduce falls back to
        # naive summation and drifts by 1 ulp).
        rssi = np.ascontiguousarray(
            means[:, None] + (0.0 + p.sample_noise_sigma * z[:, noise_index])
        )
        if occluded:
            body = np.abs(
                p.body_occlusion
                + (p.body_occlusion / 2) * z[:, noise_index[flags] + 1]
            )
            rssi[:, flags] = rssi[:, flags] - body
        np.maximum(rssi, p.rssi_floor, out=rssi)
        return rssi.mean(axis=1)
