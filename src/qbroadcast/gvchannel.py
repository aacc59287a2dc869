"""Event-level model of the orthogonal-state secret bit channel used to
exchange machine-measurement outcomes.

Each classical bit is carried by one particle split into two wave packets
separated by a transmission delay. The codewords are the orthogonal
superpositions (|a> + |b>)/sqrt(2) for bit 0 and (|a> - |b>)/sqrt(2) for
bit 1, where |a> and |b> are the early and late packet modes; the receiver
recombines the packets interferometrically and reads the relative sign.

The intercept-resend eavesdropper cannot hold both packets at once (the
delay keeps them apart in transit), so she measures each particle in the
packet basis {|a>, |b>} and resends what she found:

- her outcome is |a> or |b> with probability 1/2 regardless of the bit;
- a resent basis packet decodes to a uniformly random bit, so the receiver
  sees a decode error with probability 1/2;
- when she collapses the particle to the late packet |b>, her resend also
  misses the expected arrival slot with probability 1/2 (timing anomaly).

A bit counts as a detection event when it shows a decode error or a timing
anomaly, so the per-bit detection rate is

    1 - P(no error) * P(no anomaly) = 1 - (1/2) * (1 - 1/4) = 5/8.

The coins are three independent fair-bit streams from the stdlib Mersenne
Twister, `random.Random(seed).getrandbits(n)`, drawn in the order Eve's
outcome, the receiver's decode, the timing anomaly. A seed is an integer
>= 0, and the same seed gives the same counts on every supported Python.
"""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ANALYTIC_DETECTION_RATE",
    "GvConfig",
    "GvResult",
    "DeliveryRecord",
    "transmit_bits",
    "secure_send",
]

# Per-bit detection probability of the intercept-resend model above.
ANALYTIC_DETECTION_RATE = 5.0 / 8.0

_STRATEGIES = ("none", "intercept_resend")


def _integer_at_least(what: str, value, low: int) -> int:
    """value as an int (through operator.index, so no float or None gets
    in), or ValueError naming `what` when it is not an integer >= low."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or number < low:
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")
    return number


@dataclass(frozen=True)
class GvConfig:
    """Channel settings: trial count and seed. `trials` repeats the whole
    bit sequence that many times; `seed` (an integer >= 0) fixes the coins."""

    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "trials", _integer_at_least("GvConfig: trials", self.trials, 1))
        object.__setattr__(self, "seed", _integer_at_least("GvConfig: seed", self.seed, 0))


@dataclass(frozen=True)
class GvResult:
    bits_sent: int
    bit_errors: int
    eve_detected: bool
    detection_events: int


@dataclass(frozen=True)
class DeliveryRecord:
    """Outcome of sending one machine result through the channel."""

    payload: str
    bit: int
    delivered: bool
    compromised: bool
    channel: GvResult


def _coins(rng: random.Random, n: int) -> np.ndarray:
    """n fair coins from one getrandbits(n) draw, as a bool array."""
    raw = rng.getrandbits(n).to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), count=n, bitorder="little").view(bool)


def transmit_bits(bits, strategy: str, config: GvConfig) -> GvResult:
    """Send a bit sequence through the channel under the given eavesdropper.

    bits is a one-dimensional sequence or array of 0/1 (or bool) entries.
    The sequence is repeated config.trials times; results are deterministic
    for a fixed seed.
    """
    seq = np.asarray(bits)
    if seq.ndim != 1 or seq.size == 0:
        raise ValueError(f"transmit_bits: expected a non-empty bit sequence, got shape {seq.shape}")
    if not np.all((seq == 0) | (seq == 1)):
        raise ValueError("transmit_bits: bits must be 0 or 1")
    if strategy not in _STRATEGIES:
        raise ValueError(f"transmit_bits: unknown strategy {strategy!r}")
    sent = np.tile(seq.astype(bool), config.trials)
    n = sent.shape[0]
    if strategy == "none":
        return GvResult(bits_sent=n, bit_errors=0, eve_detected=False, detection_events=0)

    rng = random.Random(config.seed)
    late = _coins(rng, n)       # Eve's packet-basis outcome is |b>
    decoded = _coins(rng, n)    # receiver's decode after the collapse
    errors = decoded != sent
    anomaly = late & _coins(rng, n)
    detected = errors | anomaly
    return GvResult(
        bits_sent=n,
        bit_errors=int(np.count_nonzero(errors)),
        eve_detected=bool(detected.any()),
        detection_events=int(np.count_nonzero(detected)),
    )


def secure_send(payload: str, strategy: str, config: GvConfig) -> DeliveryRecord:
    """Encode one machine outcome (Q0 -> 0, Q1 -> 1) and send it.

    Delivery is aborted (delivered=False, compromised=True) when the
    transmission shows any detection event.
    """
    if payload not in ("Q0", "Q1"):
        raise ValueError(f"secure_send: payload must be Q0 or Q1, got {payload!r}")
    bit = 1 if payload == "Q1" else 0
    result = transmit_bits([bit], strategy, config)
    compromised = result.eve_detected
    return DeliveryRecord(
        payload=payload,
        bit=bit,
        delivered=not compromised,
        compromised=compromised,
        channel=result,
    )
