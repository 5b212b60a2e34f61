"""Exact-arithmetic SIMD slot engine.

Simulates the packed-ciphertext primitive API (enc/dec/add/mul/cmul/rot)
over plain float64 slot vectors, with operation metering and
multiplicative-depth bookkeeping.  Arithmetic is exact, so every
higher-level algorithm can be checked against a plaintext reference
bit-for-bit on integer inputs; a real lattice backend could later satisfy
the same surface, at which point depth counters map onto rescale levels.
"""

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "EngineError",
    "CapacityError",
    "LayoutError",
    "EngineParams",
    "OpMeter",
    "Ciphertext",
    "PlainMask",
    "SlotEngine",
    "is_pow2",
    "next_pow2",
]


class EngineError(ValueError):
    """Malformed engine input: incompatible operands or bad parameters."""


class CapacityError(EngineError):
    """Payload does not fit the slot vector."""


class LayoutError(EngineError):
    """Operand layout does not match what the operation requires."""


def is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def next_pow2(x: int) -> int:
    if x <= 1:
        return 1
    return 1 << (x - 1).bit_length()


@dataclass(frozen=True)
class EngineParams:
    """Engine configuration.

    Only ``slots`` affects simulated arithmetic; the remaining fields are
    budget metadata mirroring a packed-lattice parameterization (log2
    ciphertext modulus, log2 ring degree, scale exponents).
    """

    slots: int = 32768
    log_q: int = 1200
    log_n: int | None = None
    delta: int = 45
    delta_c: int = 20

    def __post_init__(self):
        if not is_pow2(self.slots) or self.slots < 2:
            raise EngineError(f"slots must be a power of two >= 2, got {self.slots}")
        if self.log_n is None:
            # ring degree is twice the slot count
            object.__setattr__(self, "log_n", int(math.log2(2 * self.slots)))
        elif self.log_n < self.slots.bit_length():
            # 2**log_n >= 2*slots, compared on exponents (slots is a power of two)
            raise EngineError(
                f"log_n (config key 'logn') is {self.log_n}, too small for {self.slots} slots: "
                f"the ring degree 2**log_n must be at least 2*slots, so log_n >= {self.slots.bit_length()}"
            )

    @classmethod
    def from_config(cls, path, slots: int | None = None) -> "EngineParams":
        """Load parameters from a JSON object file (integer keys: slots, logq,
        logn, delta, delta_c).  Anything else raises EngineError naming the
        file.  ``slots``, if given, replaces the file's slot count; an absent
        ``logn`` is then derived from it."""
        try:
            raw = json.loads(Path(path).read_text())
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise EngineError(f"{path}: unreadable config: {exc}") from exc
        if not isinstance(raw, dict):
            raise EngineError(f"{path}: engine config must be a JSON object, got {type(raw).__name__}")
        known = {"slots", "logq", "logn", "delta", "delta_c"}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise EngineError(f"unknown config keys in {path}: {unknown}")
        for key, value in raw.items():
            if type(value) is not int:
                raise EngineError(f"{path}: config key {key!r} must be an integer, got {value!r}")
        try:
            return cls(
                slots=raw.get("slots", 32768) if slots is None else slots,
                log_q=raw.get("logq", 1200),
                log_n=raw.get("logn"),
                delta=raw.get("delta", 45),
                delta_c=raw.get("delta_c", 20),
            )
        except EngineError as exc:
            raise EngineError(f"{path}: {exc}") from exc


@dataclass
class OpMeter:
    """Homomorphic-operation counters.

    Counters only ever increase.  Two meters combine by summing counters
    and taking the max of depths, which is associative and commutative, so
    per-worker meters can be merged in any order.
    """

    add_count: int = 0
    mul_count: int = 0
    cmul_count: int = 0
    rot_count: int = 0
    enc_count: int = 0
    max_depth: int = 0

    def copy(self) -> "OpMeter":
        return replace(self)

    def merged(self, other: "OpMeter") -> "OpMeter":
        return OpMeter(
            add_count=self.add_count + other.add_count,
            mul_count=self.mul_count + other.mul_count,
            cmul_count=self.cmul_count + other.cmul_count,
            rot_count=self.rot_count + other.rot_count,
            enc_count=self.enc_count + other.enc_count,
            max_depth=max(self.max_depth, other.max_depth),
        )

    def delta_since(self, earlier: "OpMeter") -> "OpMeter":
        """Counter deltas for a metered section.  max_depth is the current value."""
        return OpMeter(
            add_count=self.add_count - earlier.add_count,
            mul_count=self.mul_count - earlier.mul_count,
            cmul_count=self.cmul_count - earlier.cmul_count,
            rot_count=self.rot_count - earlier.rot_count,
            enc_count=self.enc_count - earlier.enc_count,
            max_depth=self.max_depth,
        )


def _frozen(values: np.ndarray) -> np.ndarray:
    """Mark a freshly computed float64 array read-only in place.

    Only arrays the engine allocated itself pass through here, so no
    caller or operand can reach them and no copy is needed.
    """
    values.flags.writeable = False
    return values


def _padded(values, slots: int, what: str) -> np.ndarray:
    """``values`` flattened into the leading slots of a new zero vector."""
    vec = np.asarray(values, dtype=np.float64).reshape(-1)
    if vec.size > slots:
        raise CapacityError(f"{what} {vec.size} exceeds {slots} slots")
    full = np.zeros(slots, dtype=np.float64)
    full[: vec.size] = vec
    return _frozen(full)


@dataclass(frozen=True, eq=False)
class Ciphertext:
    """Immutable slot vector plus multiplicative-depth counter.

    ``layout`` is an informational tag (e.g. ("grid", m, n)) set by the
    packing helpers; it never affects arithmetic.
    """

    slots: np.ndarray
    depth: int = 0
    layout: tuple | None = None


@dataclass(frozen=True, eq=False)
class PlainMask:
    """Plaintext constant vector for cmul.  Filter-role masks are 0/1 only."""

    values: np.ndarray
    role: str = "constant"

    def __post_init__(self):
        if self.role == "filter":
            vals = self.values
            if not np.all((vals == 0.0) | (vals == 1.0)):
                raise EngineError("filter masks may contain only 0.0 and 1.0")


class _Scope:
    """Context manager behind :meth:`SlotEngine.scope`."""

    __slots__ = ("meter", "name", "into", "start")

    def __init__(self, meter: OpMeter, name: str, into: dict):
        self.meter, self.name, self.into = meter, name, into

    def __enter__(self):
        m = self.meter
        self.start = (m.add_count, m.mul_count, m.cmul_count, m.rot_count, m.enc_count)

    def __exit__(self, *exc):
        m, (add, mul, cmul, rot, enc) = self.meter, self.start
        spent = self.into.get(self.name)
        first = spent is None
        if first:
            spent = OpMeter()
        spent.add_count += m.add_count - add
        spent.mul_count += m.mul_count - mul
        spent.cmul_count += m.cmul_count - cmul
        spent.rot_count += m.rot_count - rot
        spent.enc_count += m.enc_count - enc
        spent.max_depth = m.max_depth
        if first:
            self.into[self.name] = spent


class SlotEngine:
    """Metered SIMD engine over ``params.slots`` packed slots.

    Ciphertexts and masks are immutable values and can be shared freely
    between workers; each worker should own its engine and the meters can
    be combined afterwards with :meth:`OpMeter.merged`.  ``rot_offsets`` is
    the set of distinct rotation offsets (mod slots) used so far: the
    rotation keys a real backend would need.
    """

    def __init__(self, params: EngineParams | None = None):
        self.params = params if params is not None else EngineParams()
        self._meter = OpMeter()
        self.scopes: dict = {}
        self.rot_offsets: set = set()

    @property
    def slots(self) -> int:
        return self.params.slots

    def _observe(self, depth: int) -> None:
        if depth > self._meter.max_depth:
            self._meter.max_depth = depth

    def _check_pair(self, a: Ciphertext, b: Ciphertext) -> None:
        if a.slots.shape != b.slots.shape or a.slots.size != self.slots:
            raise EngineError("operands come from engines with different slot counts")

    # -- primitive API -------------------------------------------------

    def enc(self, values, layout: tuple | None = None) -> Ciphertext:
        """Pack ``values`` into the leading slots (zeros elsewhere) at depth 0."""
        full = _padded(values, self.slots, "payload")
        self._meter.enc_count += 1
        self._observe(0)
        return Ciphertext(full, depth=0, layout=layout)

    def dec(self, ct: Ciphertext) -> np.ndarray:
        """Return the full slot vector (a copy)."""
        return np.array(ct.slots, dtype=np.float64)

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_pair(a, b)
        depth = max(a.depth, b.depth)
        self._meter.add_count += 1
        self._observe(depth)
        return Ciphertext(_frozen(a.slots + b.slots), depth=depth, layout=a.layout)

    def mul(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self._check_pair(a, b)
        depth = max(a.depth, b.depth) + 1
        self._meter.mul_count += 1
        self._observe(depth)
        return Ciphertext(_frozen(a.slots * b.slots), depth=depth, layout=a.layout)

    def cmul(self, mask: PlainMask, ct: Ciphertext) -> Ciphertext:
        if mask.values.size != self.slots:
            raise EngineError(
                f"mask length {mask.values.size} != slot count {self.slots}"
            )
        depth = ct.depth + 1  # constant-scale consumption
        self._meter.cmul_count += 1
        self._observe(depth)
        return Ciphertext(_frozen(mask.values * ct.slots), depth=depth, layout=ct.layout)

    def rot(self, ct: Ciphertext, l: int) -> Ciphertext:
        """Cyclic left rotation by ``l`` slots; negative ``l`` rotates right."""
        self._meter.rot_count += 1
        self._observe(ct.depth)
        v = ct.slots
        n = v.size
        l %= n
        self.rot_offsets.add(l)
        out = np.empty(n, dtype=np.float64)
        out[: n - l] = v[l:]
        out[n - l :] = v[:l]
        return Ciphertext(_frozen(out), depth=ct.depth, layout=ct.layout)

    def meter_snapshot(self) -> OpMeter:
        """Current counters, as an independent copy."""
        return self._meter.copy()

    def scope(self, name: str, into: dict | None = None) -> _Scope:
        """Charge the ops run inside a ``with`` block to ``into[name]``.

        ``into`` defaults to :attr:`scopes`.  The entry is an OpMeter of
        counter deltas, inserted when the block first exits; re-entering
        the same name adds to it.  ``max_depth`` is the engine's value at
        exit, as in :meth:`OpMeter.delta_since`.
        """
        return _Scope(self._meter, name, self.scopes if into is None else into)

    # -- helpers ---------------------------------------------------------

    def mask(self, values, role: str = "constant") -> PlainMask:
        """Build a full-length PlainMask, zero-padding short inputs."""
        return PlainMask(_padded(values, self.slots, "mask payload"), role=role)
