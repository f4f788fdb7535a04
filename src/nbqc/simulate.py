"""BPSK-AWGN Monte-Carlo evaluation of QC codes.

Symbols map to r bits (little-endian polynomial basis), bits to the BPSK
points 1 - 2b, and the channel adds Gaussian noise with variance
1 / (2 * rate * 10^(EbN0/10)); Eb/N0 is accounted per information bit of
the binary design rate.  Symbol priors multiply the per-bit Gaussian
likelihoods.  Campaigns are deterministic: every frame draws from its own
substream keyed by (seed, SNR value, frame index), so results do not
depend on the order of SNR points or on how frames are distributed.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codec import Encoder, QspaDecoder
from .gf import Field, checked_int
from .lift import QcCode, expand

TRANSMIT_ALL_ZERO = "all-zero"
TRANSMIT_RANDOM = "random-message"
# 10^(SNR/10) and the noise variance stay far inside the float range
MAX_SNR_DB = 300.0
# each SNR point keeps one histogram bin per iteration count
MAX_ITERS = 1 << 16
# frames a point runs at a time: the most a pool can keep busy, so a
# pool never holds more workers
_CHUNK = 32
# frames one decoder decodes at once, in the lanes of a block-diagonal QSPA
_LANES = 4


class DesignRateError(ValueError):
    """A code whose design rate is not in (0, 1): Eb/N0 sets no noise."""


@dataclass
class SimConfig:
    snr_points_db: tuple[float, ...]
    max_frames: int
    min_block_errors: int = 100
    max_iters: int = 80
    seed: int = 0
    mode: str = TRANSMIT_ALL_ZERO

    def __post_init__(self):
        # -0 dB is the point 0 dB: one substream key and one output row,
        # so giving both is giving one point twice
        self.snr_points_db = tuple(float(s) + 0.0 for s in self.snr_points_db)
        if not self.snr_points_db:
            raise ValueError("need at least one SNR point")
        for k, s in enumerate(self.snr_points_db):
            if math.isnan(s) or s == -math.inf:
                raise ValueError(f"SNR point {s} is not a channel; "
                                 "only +inf (noiseless) may be infinite")
            if math.isfinite(s) and abs(s) > MAX_SNR_DB:
                raise ValueError(f"SNR point {s} dB is outside "
                                 f"[-{MAX_SNR_DB}, {MAX_SNR_DB}]")
            if s in self.snr_points_db[:k]:
                raise ValueError(f"SNR point {s} dB is given twice")
        checked_int(self.min_block_errors, "min_block_errors", 1)
        checked_int(self.max_frames, "max_frames", 1)
        checked_int(self.max_iters, "max_iters", 1, MAX_ITERS)
        checked_int(self.seed, "seed", 0)
        if self.mode not in (TRANSMIT_ALL_ZERO, TRANSMIT_RANDOM):
            raise ValueError(f"unknown transmission mode {self.mode!r}")

    def to_json_dict(self) -> dict:
        return {
            "snr_points_db": ["inf" if math.isinf(s) else s
                              for s in self.snr_points_db],
            "max_frames": self.max_frames,
            "min_block_errors": self.min_block_errors,
            "max_iters": self.max_iters,
            "seed": self.seed,
            "mode": self.mode,
        }


class FrameOutcome(NamedTuple):
    """What one decoded frame adds to its SNR point."""

    converged: bool
    wrong: bool  # the hard decision is not the word sent
    symbol_errors: int
    bit_errors: int
    iterations: int
    dead_row_resets: int


@dataclass
class SimPoint:
    """Counts over the frames of one SNR point.  A block error is a
    detected failure (no convergence) or an undetected error (convergence
    to a wrong word); only block errors count symbol and bit errors."""

    snr_db: float
    # frames that stopped after 1, 2, ..., max_iters iterations
    iteration_histogram: list[int]
    frames: int = 0
    detected_failures: int = 0
    undetected_errors: int = 0
    bit_errors: int = 0
    symbol_errors: int = 0
    dead_row_resets: int = 0

    def add(self, outcome: FrameOutcome) -> None:
        self.frames += 1
        self.iteration_histogram[outcome.iterations - 1] += 1
        self.dead_row_resets += outcome.dead_row_resets
        self.detected_failures += not outcome.converged
        self.undetected_errors += outcome.converged and outcome.wrong
        self.symbol_errors += outcome.symbol_errors
        self.bit_errors += outcome.bit_errors

    @property
    def block_errors(self) -> int:
        return self.detected_failures + self.undetected_errors

    @property
    def iterations_total(self) -> int:
        return sum(i * n for i, n in enumerate(self.iteration_histogram, 1))

    @property
    def bler(self) -> float:
        return self.block_errors / self.frames

    def ber(self, bits_per_frame: int) -> float:
        return self.bit_errors / (self.frames * bits_per_frame)

    @property
    def mean_iterations(self) -> float:
        return self.iterations_total / self.frames


@dataclass
class SimResult:
    points: list[SimPoint]
    code_digest: str
    config: SimConfig
    n_symbols: int
    bits_per_symbol: int
    info_positions: list[int] | None = None

    @property
    def bits_per_frame(self) -> int:
        return self.n_symbols * self.bits_per_symbol

    def to_csv(self) -> str:
        lines = ["snr_db,frames,block_errors,bler,bit_errors,ber,mean_iters"]
        for p in self.points:
            snr = "inf" if math.isinf(p.snr_db) else f"{p.snr_db:g}"
            lines.append(
                f"{snr},{p.frames},{p.block_errors},{p.bler:.8e},"
                f"{p.bit_errors},{p.ber(self.bits_per_frame):.8e},"
                f"{p.mean_iterations:.4f}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "code_digest": self.code_digest,
            "config": self.config.to_json_dict(),
            "n_symbols": self.n_symbols,
            "bits_per_symbol": self.bits_per_symbol,
            "info_positions": self.info_positions,
            "points": [
                {
                    "snr_db": "inf" if math.isinf(p.snr_db) else p.snr_db,
                    "frames": p.frames,
                    "block_errors": p.block_errors,
                    "bler": p.bler,
                    "bit_errors": p.bit_errors,
                    "ber": p.ber(self.bits_per_frame),
                    "symbol_errors": p.symbol_errors,
                    "mean_iters": p.mean_iterations,
                    "detected_failures": p.detected_failures,
                    "undetected_errors": p.undetected_errors,
                    "iteration_histogram": p.iteration_histogram,
                    "dead_row_resets": p.dead_row_resets,
                }
                for p in self.points
            ],
        }


def _bits_table(field: Field) -> np.ndarray:
    """(q, r) little-endian bit decomposition of every symbol value."""
    q, r = field.q, field.r
    return (np.arange(q)[:, None] >> np.arange(r)[None, :]) & 1


def noise_sigma(ebn0_db: float, rate: float) -> float:
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie in (0, 1)")
    if math.isinf(ebn0_db):
        return 0.0
    return math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))


def channel_priors(
    symbols, ebn0_db: float, rate: float, field: Field, rng: np.random.Generator
) -> np.ndarray:
    """Per-symbol posterior probabilities after BPSK transmission over AWGN."""
    symbols = np.asarray(symbols, dtype=np.int64)
    q, r = field.q, field.r
    bits = _bits_table(field)
    sigma = noise_sigma(ebn0_db, rate)
    tx = 1.0 - 2.0 * bits[symbols]              # (n, r)
    if sigma == 0.0:
        priors = np.zeros((len(symbols), q))
        priors[np.arange(len(symbols)), symbols] = 1.0
        return priors
    y = tx + sigma * rng.standard_normal(tx.shape)
    # log-likelihood of each bit value, combined per symbol in the log domain
    ll = np.stack(
        [-((y - 1.0) ** 2), -((y + 1.0) ** 2)], axis=-1
    ) / (2.0 * sigma**2)                         # (n, r, 2)
    logp = np.zeros((len(symbols), q))
    for j in range(r):
        logp += ll[:, j, :][:, bits[:, j]]
    logp -= logp.max(axis=1, keepdims=True)
    priors = np.exp(logp)
    priors /= priors.sum(axis=1, keepdims=True)
    return priors


def _frame_rng(seed: int, snr_db: float, frame: int) -> np.random.Generator:
    """Substream keyed by the SNR value itself, not its list position."""
    snr_key = int(np.float64(snr_db).view(np.uint64))
    return np.random.default_rng([seed, snr_key, frame])


class _FrameEvaluator:
    """Per-frame transmit/decode pipeline shared by workers."""

    def __init__(self, code: QcCode, cfg: SimConfig, lanes: int = _LANES):
        self.H = H = expand(code)
        self.lanes = lanes
        self.field = code.field
        self.n = H.n_cols
        self.rate = (H.n_cols - H.n_rows) / H.n_cols
        self.encoder = Encoder(H) if cfg.mode == TRANSMIT_RANDOM else None
        if not 0.0 < self.rate < 1.0:
            raise DesignRateError(
                f"design rate {H.n_cols - H.n_rows}/{H.n_cols} is not in "
                "(0, 1), so no Eb/N0 sets a noise level")
        self.popcount = _bits_table(self.field).sum(axis=1)
        self.seed = cfg.seed
        self.max_iters = cfg.max_iters

    @functools.cached_property
    def decoder(self) -> QspaDecoder:
        """Built at the first frame, so a process that only checks the
        code never holds one."""
        return QspaDecoder(self.H, self.lanes)

    def _sent(self, snr_db: float, frames):
        """``((frame, word sent), channel priors)`` of each frame."""
        for frame in frames:
            rng = _frame_rng(self.seed, snr_db, frame)
            if self.encoder is not None:
                msg = rng.integers(0, self.field.q,
                                   size=self.encoder.message_length)
                tx = self.encoder.encode(msg)
            else:
                tx = np.zeros(self.n, dtype=np.int64)
            yield ((frame, tx),
                   channel_priors(tx, snr_db, self.rate, self.field, rng))

    def outcomes(self, snr_db: float, frames):
        """``(frame, FrameOutcome)`` of each of ``frames``, in the order the
        decoder's lanes finish them."""
        for (frame, tx), res in self.decoder.stream(
                self._sent(snr_db, frames), self.max_iters):
            diff = res.hard_decision != tx
            wrong = bool(diff.any())
            yield frame, FrameOutcome(
                res.converged, wrong, int(diff.sum()),
                int(self.popcount[res.hard_decision ^ tx].sum()) if wrong else 0,
                res.iterations_used, res.dead_row_resets)


_POOL_EVAL: _FrameEvaluator | None = None


def _pool_init(code: QcCode, cfg: SimConfig, lanes: int) -> None:
    global _POOL_EVAL
    _POOL_EVAL = _FrameEvaluator(code, cfg, lanes)


def _pool_eval(args) -> list[tuple[int, FrameOutcome]]:
    snr_db, frames = args
    return list(_POOL_EVAL.outcomes(snr_db, frames))


def _pool_outcomes(pool, workers: int, snr_db: float, max_frames: int):
    """``(frame, FrameOutcome)`` of every frame, each chunk split into one
    contiguous slice per worker."""
    for start in range(0, max_frames, _CHUNK):
        chunk = range(start, min(start + _CHUNK, max_frames))
        step = -(-len(chunk) // workers)
        slices = [(snr_db, chunk[i:i + step])
                  for i in range(0, len(chunk), step)]
        for outcomes in pool.map(_pool_eval, slices):
            yield from outcomes


def _pool_lanes(workers: int) -> int:
    """Lanes of a pool worker's decoder.  Its lanes drain at the end of
    each slice, where a lane whose frame runs long holds the others, so
    each lane gets at least ``_LANES`` frames of a full chunk's slice."""
    return max(1, min(_LANES, -(-_CHUNK // workers) // _LANES))


def run_campaign(code: QcCode, cfg: SimConfig, workers: int = 1) -> SimResult:
    """Monte-Carlo BLER/BER measurement of one code.

    Each SNR point runs frames until min_block_errors or max_frames.  A
    block error is any frame that fails to converge or converges to the
    wrong codeword.  Results are bit-identical for a given (code, cfg)
    regardless of the worker count: frames draw from substreams keyed by
    (seed, SNR, frame index) and are accumulated in frame order.

    One worker decodes a point's frames as one stream through the
    ``_LANES`` lanes of its decoder (see :class:`QspaDecoder`), each lane
    refilled with the next frame as soon as its frame stops.  A pool runs
    ``_CHUNK`` frames at a time, each worker a contiguous slice of them
    through its own lanes, fewer of them when the slices are short (see
    :func:`_pool_lanes`); more than ``_CHUNK`` workers run as ``_CHUNK``.
    Frames decoded past the point's stop are discarded.
    """
    checked_int(workers, "workers", 1)
    # built up front: a rank-deficient code in random mode, then a code
    # whose design rate is not in (0, 1), aborts before any frames, and the
    # encoder records the systematic permutation
    evaluator = _FrameEvaluator(code, cfg)
    info_positions = (evaluator.encoder.info_positions
                      if evaluator.encoder is not None else None)
    if workers == 1:
        points = [_run_point(snr, cfg, evaluator.outcomes(
            snr, range(cfg.max_frames))) for snr in cfg.snr_points_db]
    else:
        # imported here: it loads multiprocessing, which only a pool needs
        from concurrent.futures import ProcessPoolExecutor

        workers = min(workers, _CHUNK)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init,
            initargs=(code, cfg, _pool_lanes(workers)),
        ) as pool:
            points = [_run_point(snr, cfg, _pool_outcomes(
                pool, workers, snr, cfg.max_frames))
                for snr in cfg.snr_points_db]
    return SimResult(
        points=points,
        code_digest=code.digest(),
        config=cfg,
        n_symbols=code.n_symbols,
        bits_per_symbol=code.field.r,
        info_positions=info_positions,
    )


def _run_point(snr_db: float, cfg: SimConfig, outcomes) -> SimPoint:
    """Add up ``(frame, FrameOutcome)`` pairs of frames 0, 1, ... in frame
    order until max_frames or min_block_errors; a frame that arrives
    before an earlier one waits for it."""
    point = SimPoint(snr_db, [0] * cfg.max_iters)
    waiting = {}
    with contextlib.closing(outcomes):
        for frame, outcome in outcomes:
            waiting[frame] = outcome
            while point.frames in waiting:
                point.add(waiting.pop(point.frames))
                if (point.frames >= cfg.max_frames
                        or point.block_errors >= cfg.min_block_errors):
                    return point
    raise AssertionError(f"frame {point.frames} never arrived")
