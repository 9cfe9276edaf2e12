"""Link-budget engine: from geometry and steering to received SNR.

Combines a TX :class:`Radio`, an RX :class:`Radio`, a channel model and
a set of :class:`PropagationPath` objects into received power and SNR.
When several paths arrive inside the receive beam they are combined
incoherently (beamformed mmWave links are dominated by a single path,
and glitch-scale analysis does not track sub-wavelength phase).

Two evaluation surfaces are offered:

* scalar :meth:`LinkBudget.measure` for single steering pairs, and
* batched :meth:`LinkBudget.sweep` / :meth:`LinkBudget.sweep_pairs`,
  which trace the scene once (through a :class:`SceneCache`) and
  evaluate whole steering grids with the vectorized antenna kernels.

The scalar path is a thin wrapper over the batched one, so sweeps and
single measurements agree bit-for-bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.geometry.raytrace import PropagationPath, RayTracer
from repro.geometry.room import Occluder
from repro.link.radios import Radio
from repro.phy.channel import MmWaveChannel
from repro import telemetry
from repro.sim.cache import SceneCache
from repro.utils.db import db_sum_powers


@dataclass(frozen=True)
class LinkMeasurement:
    """Result of one link-budget evaluation.

    An outage (no decodable energy at all) is represented structurally:
    ``in_outage`` is True, ``dominant_path`` is None, and the power and
    SNR fields are ``-inf``.  Callers should branch on ``in_outage``
    rather than comparing floats against infinity.
    """

    received_power_dbm: float
    snr_db: float
    dominant_path: Optional[PropagationPath]
    tx_steer_deg: float
    rx_steer_deg: float

    @property
    def in_outage(self) -> bool:
        """No decodable energy at all."""
        return self.received_power_dbm == -math.inf

    @classmethod
    def outage(cls, tx_steer_deg: float, rx_steer_deg: float) -> "LinkMeasurement":
        """The canonical dead-link measurement at a steering pair."""
        return cls(
            received_power_dbm=-math.inf,
            snr_db=-math.inf,
            dominant_path=None,
            tx_steer_deg=tx_steer_deg,
            rx_steer_deg=rx_steer_deg,
        )


class LinkBudget:
    """Evaluates links inside one room/channel context.

    Scene geometry is queried through a :class:`SceneCache` (one is
    created over ``tracer`` when not supplied), so repeated
    evaluations at fixed endpoints re-trace nothing.
    """

    def __init__(
        self,
        tracer: RayTracer,
        channel: MmWaveChannel,
        cache: Optional[SceneCache] = None,
    ) -> None:
        self.tracer = tracer
        self.channel = channel
        self.cache = cache if cache is not None else SceneCache(tracer)

    # -- batched evaluation ---------------------------------------------

    def path_powers_dbm(
        self,
        tx: Radio,
        rx: Radio,
        paths: Sequence[PropagationPath],
        tx_steer_deg,
        rx_steer_deg,
    ) -> np.ndarray:
        """Per-path received power over broadcast steering grids.

        Returns shape ``(P,) + broadcast(tx_steer, rx_steer).shape``;
        ``axis=0`` holds the paths.  The per-path channel gain is
        computed once, in path order, and each side's antenna kernel
        evaluates every (path, steering) pair in one vectorized call:
        the path angles are shaped ``(P, 1, ...)`` against the grid.
        """
        tx_steer = np.asarray(tx_steer_deg, dtype=float)
        rx_steer = np.asarray(rx_steer_deg, dtype=float)
        shape = np.broadcast(tx_steer, rx_steer).shape
        const = tx.config.tx_power_dbm - tx.config.implementation_loss_db
        per_path = (len(paths),) + (1,) * len(shape)
        channel_db = np.array([self.channel.path_gain_db(p) for p in paths])
        departures = np.array([p.departure_angle_deg for p in paths])
        arrivals = np.array([p.arrival_angle_deg for p in paths])
        tx_gain = tx.array.gain_dbi_batch(departures.reshape(per_path), tx_steer)
        rx_gain = rx.array.gain_dbi_batch(arrivals.reshape(per_path), rx_steer)
        return const + channel_db.reshape(per_path) + tx_gain + rx_gain

    def sweep(
        self,
        tx: Radio,
        rx: Radio,
        tx_steer_deg,
        rx_steer_deg,
        extra_occluders: Sequence[Occluder] = (),
        max_bounces: int = 2,
        paths: Optional[Sequence[PropagationPath]] = None,
    ) -> np.ndarray:
        """Total received power (dBm) over the steering outer product.

        ``tx_steer_deg`` (length T) and ``rx_steer_deg`` (length R) are
        absolute steering azimuths; the result has shape ``(T, R)``.
        The scene is traced once (via the cache) and every path/angle
        combination is evaluated with the batched antenna kernels —
        this is the engine behind exhaustive beam searches and the
        Fig. 8 joint sweeps.
        """
        tx_angles = np.atleast_1d(np.asarray(tx_steer_deg, dtype=float))
        rx_angles = np.atleast_1d(np.asarray(rx_steer_deg, dtype=float))
        return self.sweep_pairs(
            tx,
            rx,
            tx_angles[:, None],
            rx_angles[None, :],
            extra_occluders=extra_occluders,
            max_bounces=max_bounces,
            paths=paths,
        )

    def sweep_pairs(
        self,
        tx: Radio,
        rx: Radio,
        tx_steer_deg,
        rx_steer_deg,
        extra_occluders: Sequence[Occluder] = (),
        max_bounces: int = 2,
        paths: Optional[Sequence[PropagationPath]] = None,
    ) -> np.ndarray:
        """Total received power (dBm) over broadcast steering pairs.

        Element-wise companion to :meth:`sweep`: the steering inputs
        broadcast against each other (pass equal-length vectors to
        evaluate N independent pairs, or an outer-product layout to
        recover :meth:`sweep`).  Entries with no surviving energy are
        ``-inf``.
        """
        if paths is None:
            paths = self.cache.all_paths(
                tx.position,
                rx.position,
                max_bounces=max_bounces,
                extra_occluders=extra_occluders,
            )
        telemetry.inc("link.sweeps")
        started = time.perf_counter()
        shape = np.broadcast(
            np.asarray(tx_steer_deg, dtype=float), np.asarray(rx_steer_deg, dtype=float)
        ).shape
        if not paths:
            result = np.full(shape, -np.inf)
        else:
            powers = self.path_powers_dbm(tx, rx, paths, tx_steer_deg, rx_steer_deg)
            result = np.asarray(db_sum_powers(powers, axis=0))
        telemetry.observe(
            "link.sweep_ms", (time.perf_counter() - started) * 1000.0
        )
        return result

    # -- scalar evaluation ----------------------------------------------

    def measure(
        self,
        tx: Radio,
        rx: Radio,
        tx_steer_deg: float,
        rx_steer_deg: float,
        extra_occluders: Sequence[Occluder] = (),
        max_bounces: int = 2,
    ) -> LinkMeasurement:
        """Total received power/SNR with explicit steering angles.

        All paths (LOS plus reflections, each attenuated by its own
        obstructions and the actual antenna gains along its departure/
        arrival angles) contribute; the strongest is reported as the
        dominant path.
        """
        paths = self.cache.all_paths(
            tx.position, rx.position, max_bounces=max_bounces, extra_occluders=extra_occluders
        )
        return self.measure_with_paths(tx, rx, paths, tx_steer_deg, rx_steer_deg)

    def measure_with_paths(
        self,
        tx: Radio,
        rx: Radio,
        paths: Sequence[PropagationPath],
        tx_steer_deg: float,
        rx_steer_deg: float,
    ) -> LinkMeasurement:
        """Like :meth:`measure` over a pre-traced path set.

        Path geometry depends only on node positions, so callers that
        sweep steering angles at fixed positions (beam searches,
        trackers) should trace once and reuse — or better, call
        :meth:`sweep` and evaluate the whole grid at once.
        """
        if not paths:
            return LinkMeasurement.outage(tx_steer_deg, rx_steer_deg)
        powers = self.path_powers_dbm(
            tx, rx, paths, float(tx_steer_deg), float(rx_steer_deg)
        )
        total_dbm = float(db_sum_powers(powers, axis=0))
        if total_dbm == -math.inf:
            return LinkMeasurement.outage(tx_steer_deg, rx_steer_deg)
        dominant = paths[int(np.argmax(powers))]
        return LinkMeasurement(
            received_power_dbm=total_dbm,
            snr_db=total_dbm - rx.config.noise_floor_dbm,
            dominant_path=dominant,
            tx_steer_deg=tx_steer_deg,
            rx_steer_deg=rx_steer_deg,
        )

    def measure_aligned(
        self,
        tx: Radio,
        rx: Radio,
        path: PropagationPath,
        extra_occluders: Sequence[Occluder] = (),
    ) -> LinkMeasurement:
        """Measure with both beams steered onto a specific path.

        Steering passes through each radio's array (scan-range clipping
        and phase quantization included), so an unreachable path shows
        up as low gain rather than an idealized number.
        """
        tx_steer = tx.steer_to(path.departure_angle_deg)
        rx_steer = rx.steer_to(path.arrival_angle_deg)
        return self.measure(
            tx, rx, tx_steer, rx_steer, extra_occluders=extra_occluders
        )

    def best_alignment(
        self,
        tx: Radio,
        rx: Radio,
        extra_occluders: Sequence[Occluder] = (),
        include_los: bool = True,
        max_bounces: int = 2,
        candidate_paths: Optional[Sequence[PropagationPath]] = None,
    ) -> LinkMeasurement:
        """Best SNR over all candidate path alignments.

        With ``include_los=False`` this is the paper's *Opt-NLOS*
        procedure restricted to environmental reflections — the
        exhaustive beam sweep that ignores the direct direction.
        ``candidate_paths`` restricts the alignments tried (e.g. only
        paths bouncing off a mirror panel); the received power at each
        alignment still includes every traced path's contribution.

        The scene is traced once; all candidate alignments (both beams
        steered onto each path, through the arrays' clipping and
        quantization) are evaluated in one batched pass.  As the
        batched stand-in for a physical joint sweep it feeds the same
        ``link.sweeps`` / ``link.sweep_ms`` metrics as :meth:`sweep`.
        """
        telemetry.inc("link.sweeps")
        started = time.perf_counter()
        all_paths = self.cache.all_paths(
            tx.position, rx.position, max_bounces=max_bounces, extra_occluders=extra_occluders
        )
        candidates = list(all_paths if candidate_paths is None else candidate_paths)
        if not include_los:
            candidates = [p for p in candidates if not p.is_line_of_sight]
        if not candidates or not all_paths:
            result = LinkMeasurement.outage(tx.steering_deg, rx.steering_deg)
        else:
            tx_steers = tx.array.steer_to_batch(
                np.asarray([p.departure_angle_deg for p in candidates])
            )
            rx_steers = rx.array.steer_to_batch(
                np.asarray([p.arrival_angle_deg for p in candidates])
            )
            powers = self.path_powers_dbm(tx, rx, all_paths, tx_steers, rx_steers)
            totals = np.asarray(db_sum_powers(powers, axis=0))
            best = int(np.argmax(totals))
            if totals[best] == -np.inf:
                result = LinkMeasurement.outage(
                    float(tx_steers[best]), float(rx_steers[best])
                )
            else:
                result = LinkMeasurement(
                    received_power_dbm=float(totals[best]),
                    snr_db=float(totals[best]) - rx.config.noise_floor_dbm,
                    dominant_path=all_paths[int(np.argmax(powers[:, best]))],
                    tx_steer_deg=float(tx_steers[best]),
                    rx_steer_deg=float(rx_steers[best]),
                )
        telemetry.observe(
            "link.sweep_ms", (time.perf_counter() - started) * 1000.0
        )
        return result
