"""Exact-arithmetic SIMD slot engine.

Simulates the packed-ciphertext primitive API (enc/dec/add/mul/cmul/rot)
over plain float64 slot vectors, with operation metering and
multiplicative-depth bookkeeping.  Arithmetic is exact, so every
higher-level algorithm can be checked against a plaintext reference
bit-for-bit on integer inputs; a real lattice backend could later satisfy
the same surface, at which point depth counters map onto rescale levels.

Rotation is lazy.  A ciphertext stores a vector plus a pending left
offset; ``rot`` meters the rotation and its key at the call, then returns
a ciphertext that shares the stored vector with the offset advanced, so
no slot data moves.  ``add``, ``mul`` and ``cmul`` compute in the first
ciphertext operand's stored frame and read the other operand through the
relative offset, which pairs every slot with the same two values as an
eager rotation would, so results are bitwise identical.  This is the
simulator's form of rotation hoisting (Halevi-Shoup, CRYPTO 2018): the
rotation's data movement is folded into the operation that consumes it.
A ciphertext is that vector, that offset and its depth, and nothing else:
its logical slots are rotated out of the stored vector on each read.

Running sums accumulate in place.  :meth:`SlotEngine.accumulator` returns
an :class:`Accumulator` that owns one running-sum vector and one scratch
vector; each term is computed into the scratch vector and added into the
sum through the ``mul``/``cmul``/``add`` primitives, in the
multiply-then-add-into-an-accumulator form lattice libraries offer (e.g.
Lattigo's ``MulRelinThenAdd``).  Every step is metered, depth-observed and
traced as the unfused chain ``acc = add(acc, mul(a, b))`` would be, and
gives the same bits, but writes no fresh vector per term.
"""

from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

__all__ = [
    "EngineError",
    "CapacityError",
    "LayoutError",
    "EngineParams",
    "MAX_SLOTS",
    "OpMeter",
    "Ciphertext",
    "PlainMask",
    "Accumulator",
    "SlotEngine",
    "is_pow2",
    "next_pow2",
]


_new = object.__new__
_MIXED_SLOTS = "operands come from engines with different slot counts"


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


# Twice the paper's 32768 slots.  Every slot vector is allocated in full,
# so a larger count could ask for more memory than the host has before any
# other check ran.
MAX_SLOTS = 1 << 16


@dataclass(frozen=True)
class EngineParams:
    """Engine configuration: the number of plaintext slots per ciphertext,
    a power of two from 2 to MAX_SLOTS.  It is the only parameter the
    simulated arithmetic reads; a real lattice backend would take its ring
    degree as 2 * slots.
    """

    slots: int = 32768

    def __post_init__(self):
        if not is_pow2(self.slots) or not 2 <= self.slots <= MAX_SLOTS:
            raise EngineError(f"slots must be a power of two from 2 to {MAX_SLOTS}, got {self.slots}")


@dataclass
class OpMeter:
    """Homomorphic-operation counters.

    Counters only ever increase.  ``rot_offsets`` is the set of distinct
    rotation offsets (mod slots) used: the rotation keys a real backend
    would need.  Two meters combine by summing counters, taking the max of
    depths and the union of offsets, which is associative and commutative,
    so meters can be merged in any order.
    """

    add_count: int = 0
    mul_count: int = 0
    cmul_count: int = 0
    rot_count: int = 0
    enc_count: int = 0
    max_depth: int = 0
    rot_offsets: set = field(default_factory=set)

    def copy(self) -> "OpMeter":
        return replace(self, rot_offsets=set(self.rot_offsets))

    def merged(self, other: "OpMeter") -> "OpMeter":
        return OpMeter(
            add_count=self.add_count + other.add_count,
            mul_count=self.mul_count + other.mul_count,
            cmul_count=self.cmul_count + other.cmul_count,
            rot_count=self.rot_count + other.rot_count,
            enc_count=self.enc_count + other.enc_count,
            max_depth=max(self.max_depth, other.max_depth),
            rot_offsets=self.rot_offsets | other.rot_offsets,
        )


def _frozen(values: np.ndarray) -> np.ndarray:
    """Mark a freshly computed float64 array read-only in place.

    Only arrays the engine allocated itself pass through here, so no
    caller or operand can reach them and no copy is needed.
    """
    values.setflags(write=False)
    return values


def _padded(values, slots: int, what: str) -> np.ndarray:
    """``values`` flattened into the leading slots of a new read-only vector,
    zeros after them.  A full-length input costs one converting copy."""
    vec = np.array(values, dtype=np.float64)  # always a fresh array, never the caller's
    if vec.ndim != 1:
        vec = vec.reshape(-1)
    if vec.size > slots:
        raise CapacityError(f"{what} {vec.size} exceeds {slots} slots")
    if vec.size < slots:
        full = np.zeros(slots, dtype=np.float64)
        full[: vec.size] = vec
        vec = full
    return _frozen(vec)


class Ciphertext:
    """Immutable slot vector plus multiplicative-depth counter.

    ``Ciphertext(vec, offset, depth)`` holds ``vec`` as it is, uncopied:
    a read-only float64 vector no caller writes.  Only the engine
    (:meth:`SlotEngine.enc` and the primitives) and ``serial``'s loader
    build one.  The stored vector holds logical slot j at index
    ``(j + offset) % n``; ``offset`` is the left rotation still pending
    from :meth:`SlotEngine.rot`.  ``slots`` is the logical (rotated)
    vector, a fresh read-only copy on each read.  A ciphertext carries no
    layout: what its slots mean is recorded by the operand that holds it
    (``PackedMatrix``, ``VirtualLayout``, ``ColumnEncodedImage``).  The
    public fields are read-only properties; the engine reads the
    underscored ones, which are plain slots and so cheap to set on every
    primitive result.
    """

    __slots__ = ("_vec", "_offset", "_depth")

    def __init__(self, vec: np.ndarray, offset: int, depth: int):
        self._vec, self._offset, self._depth = vec, offset, depth

    offset = property(attrgetter("_offset"), doc="Pending left rotation of the stored vector.")
    depth = property(attrgetter("_depth"), doc="Multiplicative depth.")

    @property
    def slots(self) -> np.ndarray:
        return _frozen(_logical(self))

    def __repr__(self) -> str:
        return f"Ciphertext(slots={self.slots!r}, depth={self._depth})"


def _logical(ct: Ciphertext) -> np.ndarray:
    """``ct``'s logical slot vector in a new writable array, even at offset 0."""
    v, k = ct._vec, ct._offset
    return np.concatenate((v[k:], v[:k]))


def _combine(ufunc, x: np.ndarray, y: np.ndarray, d: int, out: np.ndarray | None) -> np.ndarray:
    """``out[i] = ufunc(x[i], y[(i + d) % n])``: a fresh read-only vector,
    or written into an accumulator's ``out`` (which may be ``x``, never
    ``y``).  A fresh result with ``d != 0`` is ``y`` rotated into a new
    vector and combined with ``x`` in place, one copy and one ufunc."""
    if out is None:
        if d == 0:
            out = ufunc(x, y)
        else:
            out = np.concatenate((y[d:], y[:d]))
            ufunc(x, out, out=out)
        out.setflags(write=False)
    elif d == 0:
        ufunc(x, y, out=out)
    else:
        n = x.size
        ufunc(x[: n - d], y[d:], out=out[: n - d])
        ufunc(x[n - d :], y[:d], out=out[n - d :])
    return out


@dataclass(frozen=True, eq=False)
class PlainMask:
    """Plaintext constant vector for cmul.

    ``values`` is a read-only full-length float64 vector, built only by
    :meth:`SlotEngine.mask` in its one converting copy, so no caller's
    array reaches a mask and one mask can serve any number of cmuls.
    """

    values: np.ndarray


class _Scope:
    """Context manager behind :meth:`SlotEngine.scope`.

    While open, its offset set sits on the engine's list of key sets, so
    every rotation adds its offset to it; ``with`` blocks nest, so the set
    an exit takes off is the last one.
    """

    __slots__ = ("meter", "key_sets", "name", "into", "start", "offsets")

    def __init__(self, meter: OpMeter, key_sets: list, name: str, into: dict):
        self.meter, self.key_sets, self.name, self.into = meter, key_sets, name, into

    def __enter__(self):
        m = self.meter
        self.start = (m.add_count, m.mul_count, m.cmul_count, m.rot_count, m.enc_count)
        self.offsets = set()
        self.key_sets.append(self.offsets)

    def __exit__(self, *exc):
        self.key_sets.pop()
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
        spent.rot_offsets |= self.offsets
        if first:
            self.into[self.name] = spent


class Accumulator:
    """Running sum of ciphertexts, built in place: see :meth:`SlotEngine.accumulator`.

    The sum starts as ``init`` (or the first added ciphertext, unchanged);
    from the first computed step on it lives in a vector the accumulator
    owns.  A product is written into the scratch vector and then added into
    the sum, each through the engine primitive, so ``mul(a, b)`` meters,
    observes and traces one ``mul`` and one ``add`` as ``sum = add(sum,
    mul(a, b))`` would, and every slot gets the same value.  ``init`` and
    the operands are only read.
    """

    __slots__ = ("_engine", "_sum", "_vec", "_scratch")

    def __init__(self, engine: "SlotEngine", init: Ciphertext | None):
        if init is not None:
            engine._check_slots(init)
        self._engine = engine
        self._sum = init
        self._vec = None
        self._scratch = None

    def _live(self) -> "SlotEngine":
        if self._engine is None:
            raise EngineError("accumulator is closed: result() was already taken")
        return self._engine

    def _running(self) -> np.ndarray:
        if self._vec is None:
            self._vec = np.empty(self._engine.slots, dtype=np.float64)
        return self._vec

    def _spare(self) -> np.ndarray:
        if self._scratch is None:
            self._scratch = np.empty(self._engine.slots, dtype=np.float64)
        return self._scratch

    def add(self, ct: Ciphertext) -> None:
        engine = self._live()
        if self._sum is None:
            engine._check_slots(ct)  # no primitive sees a first term, so check it here
            self._sum = ct
        else:
            self._sum = engine.add(self._sum, ct, _out=self._running())

    def mul(self, a: Ciphertext, b: Ciphertext) -> None:
        self._add_product(self._live().mul, a, b)

    def cmul(self, mask: PlainMask, ct: Ciphertext) -> None:
        self._add_product(self._live().cmul, mask, ct)

    def _add_product(self, product, *operands) -> None:
        """A first term is written straight into the running vector; any
        later one into the scratch vector, then added into the sum."""
        if self._sum is None:
            self._sum = product(*operands, _out=self._running())
        else:
            term = product(*operands, _out=self._spare())
            self._sum = self._engine.add(self._sum, term, _out=self._running())

    def result(self) -> Ciphertext:
        """The sum as a read-only ciphertext; closes the accumulator.

        A computed sum is returned over the accumulator's own vector, made
        read-only here.  A lone term (``init`` or one added ciphertext,
        never combined) is returned as it is, uncopied."""
        self._live()
        total = self._sum
        if total is None:
            raise EngineError("accumulator has no terms")
        if total._vec is self._vec:
            _frozen(self._vec)
        self._engine = self._sum = self._vec = self._scratch = None
        return total


class SlotEngine:
    """Metered SIMD engine over ``slots`` packed slots, the one field of
    its :class:`EngineParams` (by default 32768).

    Ciphertexts and masks are immutable values and can be shared freely
    between engines, so one loaded model serves every batch, each on its
    own engine; meters combine with :meth:`OpMeter.merged`.
    ``rot_offsets`` is the set of distinct rotation offsets (mod slots)
    used so far: the rotation keys a real backend would need, and the
    meter's own set.
    """

    def __init__(self, params: EngineParams | None = None):
        self.slots: int = (params if params is not None else EngineParams()).slots
        self._meter = OpMeter()
        self.scopes: dict = {}
        self.rot_offsets: set = self._meter.rot_offsets
        # the engine's offset set, then one per open scope, innermost last
        self._key_sets: list = [self.rot_offsets]

    def _check_slots(self, ct: Ciphertext) -> None:
        if ct._vec.size != self.slots:
            raise EngineError(_MIXED_SLOTS)

    # -- primitive API -------------------------------------------------
    #
    # add/mul/cmul/rot are the hot path: each checks, meters, observes the
    # depth and builds its result inline (``_new`` plus slot assignment);
    # the only call add/mul/cmul make is ``_combine`` for the numpy work.

    def enc(self, values) -> Ciphertext:
        """Pack ``values`` into the leading slots (zeros elsewhere) at depth 0;
        the caller's operand record, not the ciphertext, says what they mean."""
        full = _padded(values, self.slots, "payload")
        self._meter.enc_count += 1
        return Ciphertext(full, 0, 0)

    def dec(self, ct: Ciphertext) -> np.ndarray:
        """Return the full slot vector (a copy)."""
        return _logical(ct)

    # ``_out`` is passed only by Accumulator: the result is written into
    # that vector, which the accumulator owns and keeps writable.

    def add(self, a: Ciphertext, b: Ciphertext, _out: np.ndarray | None = None) -> Ciphertext:
        x, y, n = a._vec, b._vec, self.slots
        if x.shape != y.shape or x.size != n:
            raise EngineError(_MIXED_SLOTS)
        depth, db = a._depth, b._depth
        if db > depth:
            depth = db
        meter = self._meter
        meter.add_count += 1
        if depth > meter.max_depth:
            meter.max_depth = depth
        k = a._offset
        res = _new(Ciphertext)
        res._vec = _combine(np.add, x, y, (b._offset - k) % n, _out)
        res._offset, res._depth = k, depth
        return res

    def mul(self, a: Ciphertext, b: Ciphertext, _out: np.ndarray | None = None) -> Ciphertext:
        x, y, n = a._vec, b._vec, self.slots
        if x.shape != y.shape or x.size != n:
            raise EngineError(_MIXED_SLOTS)
        depth, db = a._depth, b._depth
        if db > depth:
            depth = db
        depth += 1
        meter = self._meter
        meter.mul_count += 1
        if depth > meter.max_depth:
            meter.max_depth = depth
        k = a._offset
        res = _new(Ciphertext)
        res._vec = _combine(np.multiply, x, y, (b._offset - k) % n, _out)
        res._offset, res._depth = k, depth
        return res

    def cmul(self, mask: PlainMask, ct: Ciphertext, _out: np.ndarray | None = None) -> Ciphertext:
        y, x, n = mask.values, ct._vec, self.slots
        if y.size != n:
            raise EngineError(f"mask length {y.size} != slot count {n}")
        if x.size != n:
            raise EngineError(_MIXED_SLOTS)
        depth = ct._depth + 1  # constant-scale consumption
        meter = self._meter
        meter.cmul_count += 1
        if depth > meter.max_depth:
            meter.max_depth = depth
        k = ct._offset
        res = _new(Ciphertext)
        # in ct's stored frame the mask is read -offset slots along; IEEE
        # multiplication commutes, so ct * mask equals mask * ct bitwise
        res._vec = _combine(np.multiply, x, y, -k % n, _out)
        res._offset, res._depth = k, depth
        return res

    def rot(self, ct: Ciphertext, l: int) -> Ciphertext:
        """Cyclic left rotation by ``l`` slots; negative ``l`` rotates right.

        Metered and keyed here; the result shares ``ct``'s stored vector
        and only advances the pending offset.
        """
        vec, n = ct._vec, self.slots
        if vec.size != n:
            raise EngineError(_MIXED_SLOTS)
        depth = ct._depth
        meter = self._meter
        meter.rot_count += 1
        if depth > meter.max_depth:
            meter.max_depth = depth
        l %= n
        for keys in self._key_sets:
            keys.add(l)
        res = _new(Ciphertext)
        res._vec, res._offset, res._depth = vec, (ct._offset + l) % n, depth
        return res

    def meter_snapshot(self) -> OpMeter:
        """Current counters, as an independent copy."""
        return self._meter.copy()

    def scope(self, name: str, into: dict | None = None) -> _Scope:
        """Charge the ops run inside a ``with`` block to ``into[name]``.

        ``into`` defaults to :attr:`scopes`.  The entry is an OpMeter of
        counter deltas, inserted when the block first exits; re-entering
        the same name adds to it.  ``max_depth`` is the engine's value at
        exit, and ``rot_offsets`` the distinct offsets the block's
        rotations used.
        """
        return _Scope(self._meter, self._key_sets, name, self.scopes if into is None else into)

    def accumulator(self, init: Ciphertext | None = None) -> Accumulator:
        """A running sum seeded with ``init`` (or empty), written in place:
        ``acc.mul(a, b)`` costs and equals ``acc = add(acc, mul(a, b))``,
        ``acc.cmul(mask, ct)`` and ``acc.add(ct)`` likewise, and
        ``acc.result()`` returns the sum as a ciphertext."""
        return Accumulator(self, init)

    # -- helpers ---------------------------------------------------------

    def mask(self, values) -> PlainMask:
        """Build a full-length PlainMask, zero-padding short inputs.

        ``values`` may be a boolean pattern; it becomes a 0/1 filter in the
        one converting copy the mask makes.
        """
        return PlainMask(_padded(values, self.slots, "mask payload"))
