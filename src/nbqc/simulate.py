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

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codec import Encoder, QspaDecoder
from .gf import Field
from .lift import QcCode, expand

TRANSMIT_ALL_ZERO = "all-zero"
TRANSMIT_RANDOM = "random-message"


@dataclass
class SimConfig:
    snr_points_db: tuple[float, ...]
    max_frames: int
    min_block_errors: int = 100
    max_iters: int = 80
    seed: int = 0
    mode: str = TRANSMIT_ALL_ZERO

    def __post_init__(self):
        self.snr_points_db = tuple(float(s) for s in self.snr_points_db)
        if not self.snr_points_db:
            raise ValueError("need at least one SNR point")
        for s in self.snr_points_db:
            if math.isnan(s) or s == -math.inf:
                raise ValueError(f"SNR point {s} is not a channel; "
                                 "only +inf (noiseless) may be infinite")
        if self.min_block_errors < 1:
            raise ValueError("min_block_errors must be >= 1")
        if self.max_frames < 1:
            raise ValueError("max_frames must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
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


@dataclass
class SimPoint:
    snr_db: float
    frames: int
    block_errors: int
    bit_errors: int
    symbol_errors: int
    iterations_total: int

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

    def __init__(self, code: QcCode, cfg: SimConfig):
        H = expand(code)
        self.field = code.field
        self.n = H.n_cols
        self.rate = (H.n_cols - H.n_rows) / H.n_cols
        self.decoder = QspaDecoder(H)
        self.encoder = Encoder(H) if cfg.mode == TRANSMIT_RANDOM else None
        self.popcount = _bits_table(self.field).sum(axis=1)
        self.seed = cfg.seed
        self.max_iters = cfg.max_iters

    def eval(self, snr_db: float, frame: int) -> tuple[bool, int, int, int]:
        rng = _frame_rng(self.seed, snr_db, frame)
        if self.encoder is not None:
            msg = rng.integers(0, self.field.q, size=self.encoder.message_length)
            tx = self.encoder.encode(msg)
        else:
            tx = np.zeros(self.n, dtype=np.int64)
        priors = channel_priors(tx, snr_db, self.rate, self.field, rng)
        res = self.decoder.decode(priors, self.max_iters)
        diff = res.hard_decision != tx
        frame_bad = bool(diff.any()) or not res.converged
        sym_err = int(diff.sum()) if frame_bad else 0
        bit_err = int(self.popcount[res.hard_decision ^ tx].sum()) if frame_bad else 0
        return frame_bad, sym_err, bit_err, res.iterations_used


_POOL_EVAL: _FrameEvaluator | None = None


def _pool_init(code: QcCode, cfg: SimConfig) -> None:
    global _POOL_EVAL
    _POOL_EVAL = _FrameEvaluator(code, cfg)


def _pool_eval(args) -> tuple[bool, int, int, int]:
    return _POOL_EVAL.eval(*args)


def run_campaign(code: QcCode, cfg: SimConfig, workers: int = 1) -> SimResult:
    """Monte-Carlo BLER/BER measurement of one code.

    Each SNR point runs frames until min_block_errors or max_frames.  A
    block error is any frame that fails to converge or converges to the
    wrong codeword.  Results are bit-identical for a given (code, cfg)
    regardless of the worker count: frames draw from substreams keyed by
    (seed, SNR, frame index) and are accumulated in frame order.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # built up front: a rank-deficient code aborts with the rank report
    # before any frames, and the encoder records the systematic permutation
    evaluator = _FrameEvaluator(code, cfg)
    info_positions = (evaluator.encoder.info_positions
                      if evaluator.encoder is not None else None)
    if workers == 1:
        points = [
            _run_point(snr, cfg, lambda frames, s=snr: map(
                evaluator.eval, [s] * len(frames), frames))
            for snr in cfg.snr_points_db
        ]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(code, cfg)
        ) as pool:
            points = [
                _run_point(snr, cfg, lambda frames, s=snr: pool.map(
                    _pool_eval, [(s, f) for f in frames]))
                for snr in cfg.snr_points_db
            ]
    return SimResult(
        points=points,
        code_digest=code.digest(),
        config=cfg,
        n_symbols=code.n_symbols,
        bits_per_symbol=code.field.r,
        info_positions=info_positions,
    )


def _run_point(snr_db: float, cfg: SimConfig, run_chunk) -> SimPoint:
    frames = block_errors = bit_errors = symbol_errors = iters = 0
    chunk_size = 32
    while frames < cfg.max_frames and block_errors < cfg.min_block_errors:
        chunk = list(range(frames, min(frames + chunk_size, cfg.max_frames)))
        for frame_bad, sym_err, bit_err, used in run_chunk(chunk):
            frames += 1
            iters += used
            if frame_bad:
                block_errors += 1
                symbol_errors += sym_err
                bit_errors += bit_err
            if frames >= cfg.max_frames or block_errors >= cfg.min_block_errors:
                break
    return SimPoint(snr_db, frames, block_errors, bit_errors, symbol_errors,
                    iters)
