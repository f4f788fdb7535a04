import math

import numpy as np
import pytest

from nbqc.codec import RankDeficiencyError
from nbqc.gf import Field
from nbqc.lift import QcCode
from nbqc.protograph import from_base_matrix
from nbqc.simulate import (
    SimConfig,
    channel_priors,
    noise_sigma,
    run_campaign,
)


def toy_code(field, Z=3):
    # shifts/labels chosen so the 6x9 expansion has full row rank
    proto = from_base_matrix([[1, 1, 1], [1, 1, 1]])
    shifts = {0: 2, 1: 1, 2: 1, 3: 0, 4: 0, 5: 0}
    labels = {e: rho % (field.q - 1) for e, rho in
              enumerate((0, 0, 0, 2, 1, 2))}
    return QcCode(proto, Z, field, shifts, labels)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(snr_points_db=(), max_frames=10)
    with pytest.raises(ValueError):
        SimConfig(snr_points_db=(1.0,), max_frames=10, min_block_errors=0)
    with pytest.raises(ValueError):
        SimConfig(snr_points_db=(1.0,), max_frames=10, mode="qam")


def test_config_rejects_non_finite_snr_except_noiseless():
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            SimConfig(snr_points_db=(1.0, bad), max_frames=10)
    assert SimConfig(snr_points_db=(math.inf,), max_frames=10)


def test_noise_sigma_formula():
    assert noise_sigma(0.0, 0.5) == pytest.approx(1.0)
    assert noise_sigma(3.0103, 0.5) == pytest.approx(1 / math.sqrt(2), rel=1e-3)
    assert noise_sigma(math.inf, 0.5) == 0.0
    with pytest.raises(ValueError):
        noise_sigma(1.0, 1.5)


def test_priors_noiseless_are_point_masses(gf16):
    rng = np.random.default_rng(0)
    symbols = np.array([0, 7, 15, 3])
    priors = channel_priors(symbols, math.inf, 0.5, gf16, rng)
    assert priors.shape == (4, 16)
    assert (priors.argmax(axis=1) == symbols).all()
    assert priors.max(axis=1) == pytest.approx(1.0)


def test_priors_high_noise_near_uniform(gf4):
    rng = np.random.default_rng(1)
    priors = channel_priors(np.zeros(50, dtype=int), -40.0, 0.5, gf4, rng)
    assert priors.sum(axis=1) == pytest.approx(np.ones(50))
    assert float(np.abs(priors - 0.25).max()) < 0.05


def test_priors_match_hand_computation(gf4):
    # one GF(4) symbol, value 2 -> bits (0, 1) -> BPSK (+1, -1)
    ebn0, rate = 2.0, 0.5
    sigma = noise_sigma(ebn0, rate)
    rng = np.random.default_rng(42)
    priors = channel_priors(np.array([2]), ebn0, rate, gf4, rng)
    rng2 = np.random.default_rng(42)
    noise = rng2.standard_normal((1, 2))
    y = np.array([1.0, -1.0]) + sigma * noise[0]
    expected = np.zeros(4)
    for x in range(4):
        bits = (x & 1, (x >> 1) & 1)
        p = 1.0
        for j, b in enumerate(bits):
            p *= math.exp(-((y[j] - (1 - 2 * b)) ** 2) / (2 * sigma**2))
        expected[x] = p
    expected /= expected.sum()
    assert priors[0] == pytest.approx(expected)


def test_priors_rows_normalized(gf8):
    rng = np.random.default_rng(3)
    symbols = rng.integers(0, 8, size=30)
    priors = channel_priors(symbols, 1.5, 0.5, gf8, rng)
    assert priors.sum(axis=1) == pytest.approx(np.ones(30))
    assert (priors >= 0).all()


def test_noiseless_campaign_has_zero_bler(gf4):
    code = toy_code(gf4)
    cfg = SimConfig(snr_points_db=(math.inf,), max_frames=20,
                    min_block_errors=5, seed=7)
    res = run_campaign(code, cfg)
    assert res.points[0].frames == 20
    assert res.points[0].block_errors == 0
    assert res.points[0].bler == 0.0
    assert "inf,20,0," in res.to_csv()


def test_campaign_deterministic(gf4):
    code = toy_code(gf4)
    cfg = SimConfig(snr_points_db=(1.0, 3.0), max_frames=40,
                    min_block_errors=5, max_iters=20, seed=11)
    a = run_campaign(code, cfg)
    b = run_campaign(code, cfg)
    assert a.to_csv() == b.to_csv()
    assert a.to_json_dict() == b.to_json_dict()


def test_snr_point_order_does_not_matter(gf4):
    code = toy_code(gf4)
    cfg1 = SimConfig(snr_points_db=(1.0, 4.0), max_frames=30,
                     min_block_errors=4, max_iters=15, seed=3)
    cfg2 = SimConfig(snr_points_db=(4.0, 1.0), max_frames=30,
                     min_block_errors=4, max_iters=15, seed=3)
    r1 = run_campaign(code, cfg1)
    r2 = run_campaign(code, cfg2)
    by_snr1 = {p.snr_db: (p.frames, p.block_errors, p.bit_errors)
               for p in r1.points}
    by_snr2 = {p.snr_db: (p.frames, p.block_errors, p.bit_errors)
               for p in r2.points}
    assert by_snr1 == by_snr2


def test_worker_count_does_not_change_results(gf4):
    code = toy_code(gf4)
    cfg = SimConfig(snr_points_db=(2.0,), max_frames=24, min_block_errors=4,
                    max_iters=15, seed=13)
    seq = run_campaign(code, cfg, workers=1)
    par = run_campaign(code, cfg, workers=2)
    assert seq.to_csv() == par.to_csv()


def test_stopping_rule(gf4):
    code = toy_code(gf4)
    # very low SNR: every frame fails, so the error target stops the run
    cfg = SimConfig(snr_points_db=(-20.0,), max_frames=500,
                    min_block_errors=6, max_iters=5, seed=2)
    res = run_campaign(code, cfg)
    assert res.points[0].block_errors == 6
    assert res.points[0].frames <= 20


def test_random_message_mode_runs_and_rank_reports(gf4):
    code = toy_code(gf4)
    cfg = SimConfig(snr_points_db=(math.inf,), max_frames=10,
                    min_block_errors=3, seed=5, mode="random-message")
    res = run_campaign(code, cfg)
    assert res.points[0].block_errors == 0
    # a rank-deficient H aborts before any frames
    proto = from_base_matrix([[1, 1], [1, 1]])
    bad = QcCode(proto, 2, Field(1), {0: 0, 1: 0, 2: 0, 3: 0},
                 {e: 0 for e in range(4)})
    cfg2 = SimConfig(snr_points_db=(5.0,), max_frames=5, min_block_errors=1,
                     seed=1, mode="random-message")
    with pytest.raises(RankDeficiencyError):
        run_campaign(bad, cfg2)


def test_random_mode_builds_one_encoder(gf4, monkeypatch):
    import nbqc.codec

    builds = []
    original = nbqc.codec.Encoder.__init__

    def counting(self, H):
        builds.append(H)
        original(self, H)

    monkeypatch.setattr(nbqc.codec.Encoder, "__init__", counting)
    cfg = SimConfig(snr_points_db=(math.inf,), max_frames=3, seed=5,
                    mode="random-message")
    res = run_campaign(toy_code(gf4), cfg)
    assert len(builds) == 1
    assert res.info_positions is not None


def test_bler_monotone_in_snr(gf4):
    code = toy_code(gf4)
    cfg = SimConfig(snr_points_db=(0.0, 2.0, 6.0), max_frames=300,
                    min_block_errors=300, max_iters=20, seed=17)
    res = run_campaign(code, cfg)
    blers = [p.bler for p in res.points]
    assert blers[0] >= blers[1] >= blers[2]


@pytest.mark.slow
def test_all_zero_mode_agrees_with_random_messages(gf4):
    # symmetry sanity check: matching BLER within 3 binomial sigmas
    code = toy_code(gf4)
    frames = 400
    snr = 2.5
    res_zero = run_campaign(
        code,
        SimConfig(snr_points_db=(snr,), max_frames=frames,
                  min_block_errors=frames, max_iters=20, seed=29),
    )
    res_rand = run_campaign(
        code,
        SimConfig(snr_points_db=(snr,), max_frames=frames,
                  min_block_errors=frames, max_iters=20, seed=31,
                  mode="random-message"),
    )
    p0 = res_zero.points[0].bler
    p1 = res_rand.points[0].bler
    pooled = (res_zero.points[0].block_errors
              + res_rand.points[0].block_errors) / (2 * frames)
    sigma = math.sqrt(max(pooled * (1 - pooled), 1e-9) * 2 / frames)
    assert abs(p0 - p1) <= 3 * sigma


def test_csv_format(gf4):
    code = toy_code(gf4)
    cfg = SimConfig(snr_points_db=(2.0,), max_frames=20, min_block_errors=3,
                    max_iters=10, seed=19)
    res = run_campaign(code, cfg)
    lines = res.to_csv().strip().split("\n")
    assert lines[0] == "snr_db,frames,block_errors,bler,bit_errors,ber,mean_iters"
    fields = lines[1].split(",")
    assert len(fields) == 7
    assert fields[0] == "2"
    point = res.points[0]
    assert int(fields[1]) == point.frames
    assert float(fields[3]) == pytest.approx(point.bler)


def test_sidecar_records_systematic_permutation(gf4):
    code = toy_code(gf4)
    zero = run_campaign(code, SimConfig(snr_points_db=(math.inf,),
                                        max_frames=3, min_block_errors=1,
                                        seed=1))
    assert zero.info_positions is None
    rand = run_campaign(code, SimConfig(snr_points_db=(math.inf,),
                                        max_frames=3, min_block_errors=1,
                                        seed=1, mode="random-message"))
    assert rand.info_positions is not None
    assert len(rand.info_positions) == 3  # n - m symbols carry the message
    assert rand.to_json_dict()["info_positions"] == rand.info_positions
