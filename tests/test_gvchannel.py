import numpy as np
import pytest

from qbroadcast import ANALYTIC_DETECTION_RATE, GvConfig, secure_send, transmit_bits


def _pattern(n):
    return [i % 2 for i in range(n)]


def test_analytic_rate_value():
    # decode error with probability 1/2, plus an independent timing anomaly
    # on half the collapsed packets: 1/2 + 1/2 * 1/4
    assert ANALYTIC_DETECTION_RATE == pytest.approx(5.0 / 8.0)


def test_quiet_channel_is_transparent():
    res = transmit_bits(_pattern(10_000), "none", GvConfig(seed=123))
    assert res.bits_sent == 10_000
    assert res.bit_errors == 0
    assert res.detection_events == 0
    assert not res.eve_detected


def test_intercept_rate_matches_analytic_mean():
    n = 10_000
    res = transmit_bits(_pattern(n), "intercept_resend", GvConfig(seed=0))
    assert res.bits_sent == n
    rate = res.detection_events / n
    sigma = np.sqrt(ANALYTIC_DETECTION_RATE * (1.0 - ANALYTIC_DETECTION_RATE) / n)
    assert abs(rate - ANALYTIC_DETECTION_RATE) < 3.0 * sigma
    # errors alone hit half the bits on average
    err = res.bit_errors / n
    assert abs(err - 0.5) < 3.0 * np.sqrt(0.25 / n)
    assert res.eve_detected


def test_same_seed_reruns_are_identical():
    a = transmit_bits(_pattern(500), "intercept_resend", GvConfig(seed=7))
    b = transmit_bits(_pattern(500), "intercept_resend", GvConfig(seed=7))
    assert a == b
    c = transmit_bits(_pattern(500), "intercept_resend", GvConfig(seed=8))
    assert c != a


def test_detection_grows_with_message_length():
    detected = []
    for n in (1, 3, 10):
        hits = sum(
            transmit_bits(_pattern(n), "intercept_resend", GvConfig(seed=s)).eve_detected
            for s in range(200)
        )
        detected.append(hits / 200.0)
    assert detected[0] <= detected[1] <= detected[2]
    assert 0.5 < detected[0] < 0.75  # single bit: 5/8
    assert detected[1] > 0.85       # three bits: 1 - (3/8)^3
    assert detected[2] > 0.95


def test_counters_stay_within_bounds():
    res = transmit_bits(_pattern(64), "intercept_resend", GvConfig(seed=21))
    assert 0 <= res.bit_errors <= res.bits_sent
    assert 0 <= res.detection_events <= res.bits_sent
    assert res.eve_detected == (res.detection_events > 0)


def test_trials_repeat_the_sequence():
    res = transmit_bits([0, 1], "none", GvConfig(trials=3))
    assert res.bits_sent == 6


def test_transmit_validates_inputs():
    for bits in ([], np.zeros(0), [0, 2], [1, -1], np.array([0, 1, 2]), np.array([-1])):
        with pytest.raises(ValueError):
            transmit_bits(bits, "none", GvConfig())
    with pytest.raises(ValueError):
        transmit_bits([0, 1], "mirror", GvConfig())


@pytest.mark.parametrize("strategy", ["none", "intercept_resend"])
def test_list_int_array_and_bool_array_send_alike(strategy):
    config = GvConfig(trials=3, seed=19)
    want = transmit_bits(_pattern(257), strategy, config)
    assert want.bits_sent == 3 * 257
    for bits in (np.arange(257) % 2, np.arange(257) % 2 == 1):
        assert transmit_bits(bits, strategy, config) == want


def test_config_validation():
    with pytest.raises(ValueError):
        GvConfig(trials=0)


@pytest.mark.parametrize(
    "field,value",
    [("seed", -1), ("seed", 1.5), ("seed", None), ("seed", "3"), ("trials", 2.0)],
)
def test_config_rejects_a_field_that_is_not_a_count(field, value):
    # the stdlib generator would take all of these: Random(-3) is Random(3),
    # and a float or None seed is hashed or drawn from the OS
    with pytest.raises(ValueError, match=f"GvConfig: {field} must be an integer"):
        GvConfig(**{field: value})


def test_config_takes_integer_like_fields_as_ints():
    config = GvConfig(trials=np.int64(2), seed=np.uint8(7))
    assert (type(config.trials), type(config.seed)) == (int, int)
    assert config == GvConfig(trials=2, seed=7)
    assert transmit_bits([0, 1], "intercept_resend", config) == transmit_bits(
        [0, 1], "intercept_resend", GvConfig(trials=2, seed=7)
    )


def test_rates_over_many_seeds_match_the_model():
    # 200 seeds x 10^3 alternating bits: the mean per-seed rates sit within
    # 3 standard errors of the mean of 5/8 (detections) and 1/2 (errors)
    n, seeds = 1000, 200
    results = [transmit_bits(_pattern(n), "intercept_resend", GvConfig(seed=s)) for s in range(seeds)]
    for rates, want in (
        (np.array([r.detection_events for r in results]) / n, ANALYTIC_DETECTION_RATE),
        (np.array([r.bit_errors for r in results]) / n, 0.5),
    ):
        sem = rates.std(ddof=1) / np.sqrt(seeds)
        assert abs(rates.mean() - want) < 3.0 * sem


def test_secure_send_clean_delivery():
    rec = secure_send("Q0", "none", GvConfig(seed=1))
    assert rec.payload == "Q0"
    assert rec.bit == 0
    assert rec.delivered
    assert not rec.compromised
    assert rec.channel.bits_sent == 1
    rec = secure_send("Q1", "none", GvConfig(seed=1))
    assert rec.bit == 1


def test_secure_send_flags_interception():
    for seed in range(40):
        rec = secure_send("Q1", "intercept_resend", GvConfig(seed=seed))
        if rec.compromised:
            assert not rec.delivered
            break
    else:
        pytest.fail("no detecting seed in range")


def test_secure_send_rejects_bad_payload():
    with pytest.raises(ValueError):
        secure_send("Q2", "none", GvConfig())
