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
Bit i of a draw is the coin of sent bit i; the bits sent are one integer
too, so the channel is a few integer operations and int.bit_count.
"""
from __future__ import annotations

import operator
import random
from typing import NamedTuple

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


class GvConfig(NamedTuple("GvConfig", [("trials", int), ("seed", int)])):
    """Channel settings: trial count and seed. `trials` repeats the whole
    bit sequence that many times; `seed` (an integer >= 0) fixes the coins."""

    __slots__ = ()

    def __new__(cls, trials: int = 1, seed: int = 0):
        trials = _integer_at_least("GvConfig: trials", trials, 1)
        seed = _integer_at_least("GvConfig: seed", seed, 0)
        return tuple.__new__(cls, (trials, seed))

    # tuple.__new__ in the namedtuple's own _make (and so in _replace)
    # would skip the checks.
    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class GvResult(NamedTuple):
    bits_sent: int
    bit_errors: int
    eve_detected: bool
    detection_events: int


class DeliveryRecord(NamedTuple):
    """Outcome of sending one machine result through the channel."""

    payload: str
    bit: int
    delivered: bool
    compromised: bool
    channel: GvResult


# Bytes 0 and 1 as the digits "0" and "1".
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bit_bytes(bits) -> bytes:
    """A one-dimensional sequence of 0/1 entries (or bools), one byte per
    bit: bytes and bytearrays as they are, anything with tolist (a numpy
    array) through it, and every other sequence entry by entry. ValueError
    for another shape, an empty sequence, or an entry not equal to 0 or 1."""
    if isinstance(bits, (bytes, bytearray)):
        raw = bytes(bits)
    else:
        items = bits.tolist() if hasattr(bits, "tolist") else bits
        try:
            items = list(items)
            values = set(items)
        except TypeError:
            raise ValueError(f"transmit_bits: expected a one-dimensional bit sequence, got {bits!r}") from None
        if not values <= {0, 1}:
            raise ValueError("transmit_bits: bits must be 0 or 1")
        raw = bytes(map(bool, items))
    if not raw:
        raise ValueError("transmit_bits: expected a non-empty bit sequence")
    if raw.translate(None, b"\x00\x01"):
        raise ValueError("transmit_bits: bits must be 0 or 1")
    return raw


def transmit_bits(bits, strategy: str, config: GvConfig) -> GvResult:
    """Send a bit sequence through the channel under the given eavesdropper.

    bits is a one-dimensional sequence of 0/1 (or bool) entries: a list,
    bytes, or a numpy array. The sequence is repeated config.trials times;
    results are deterministic for a fixed seed.
    """
    raw = _bit_bytes(bits)
    if strategy not in _STRATEGIES:
        raise ValueError(f"transmit_bits: unknown strategy {strategy!r}")
    n = len(raw) * config.trials
    if strategy == "none":
        return GvResult(bits_sent=n, bit_errors=0, eve_detected=False, detection_events=0)

    # bit i of `sent` is bit i of the repeated sequence
    sent = int((raw * config.trials).translate(_DIGITS)[::-1], 2)
    rng = random.Random(config.seed)
    late = rng.getrandbits(n)       # Eve's packet-basis outcome is |b>
    decoded = rng.getrandbits(n)    # receiver's decode after the collapse
    errors = decoded ^ sent
    detected = errors | (late & rng.getrandbits(n))
    return GvResult(
        bits_sent=n,
        bit_errors=errors.bit_count(),
        eve_detected=detected != 0,
        detection_events=detected.bit_count(),
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
