import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from packedhe.engine import (
    CapacityError,
    EngineError,
    EngineParams,
    OpMeter,
)
from packedhe.serial import read_ciphertext, write_ciphertext

from conftest import make_engine


def test_enc_zero_pads_leading_slots():
    eng = make_engine(4)
    ct = eng.enc([1, 2, 3])
    assert ct.depth == 0
    np.testing.assert_array_equal(eng.dec(ct), [1, 2, 3, 0])


def test_enc_empty_is_all_zero():
    eng = make_engine(8)
    np.testing.assert_array_equal(eng.dec(eng.enc([])), np.zeros(8))


def test_enc_image_sized_payload():
    eng = make_engine(32768)
    vec = np.arange(1, 785, dtype=float)  # one 28x28 image
    out = eng.dec(eng.enc(vec))
    np.testing.assert_array_equal(out[:784], vec)
    assert np.count_nonzero(out[784:]) == 0


def test_enc_capacity_error():
    eng = make_engine(4)
    with pytest.raises(CapacityError):
        eng.enc(np.ones(5))


def test_dec_enc_round_trip_exact():
    eng = make_engine(8)
    np.testing.assert_array_equal(eng.dec(eng.enc([5])), [5, 0, 0, 0, 0, 0, 0, 0])


def test_additive_homomorphism():
    eng = make_engine(8)
    out = eng.dec(eng.add(eng.enc([1]), eng.enc([2])))
    np.testing.assert_array_equal(out, [3, 0, 0, 0, 0, 0, 0, 0])


def test_add_mul_slotwise_and_depth():
    eng = make_engine(2)
    a, b = eng.enc([1, 2]), eng.enc([3, 4])
    np.testing.assert_array_equal(eng.dec(eng.add(a, b)), [4, 6])
    prod = eng.mul(eng.enc([2, 3]), eng.enc([4, 5]))
    np.testing.assert_array_equal(eng.dec(prod), [8, 15])
    assert prod.depth == 1


def test_add_identity_and_mul_identity():
    eng = make_engine(4)
    a = eng.enc([7, -2, 3])
    np.testing.assert_array_equal(eng.dec(eng.add(a, eng.enc([]))), eng.dec(a))
    ones = eng.enc(np.ones(4))
    out = eng.mul(a, ones)
    np.testing.assert_array_equal(eng.dec(out), eng.dec(a))
    assert out.depth == a.depth + 1


def test_cmul_filter_semantics():
    eng = make_engine(2)
    out = eng.cmul(eng.mask(np.array([True, False])), eng.enc([7, 9]))
    np.testing.assert_array_equal(eng.dec(out), [7, 0])
    assert out.depth == 1
    all_ones = eng.cmul(eng.mask(np.ones(2)), eng.enc([7, 9]))
    np.testing.assert_array_equal(eng.dec(all_ones), [7, 9])


def test_plain_mask_keeps_its_own_read_only_copy():
    eng = make_engine(4)
    pattern = np.array([False, True, True, False])
    built = eng.mask(pattern)
    pattern[0] = True  # after construction; the mask must not see it
    assert built.values.dtype == np.float64 and built.values.tolist() == [0.0, 1.0, 1.0, 0.0]
    assert not built.values.flags.writeable
    with pytest.raises(ValueError):
        built.values[0] = 0.5


def test_ciphertext_keeps_its_own_read_only_copy():
    eng = make_engine(4)
    arr = np.arange(4.0)  # full length, so enc pads nothing
    ct = eng.enc(arr)
    arr[0] = 99  # after construction; the ciphertext must not see it
    assert eng.dec(eng.add(ct, ct)).tolist() == [0.0, 2.0, 4.0, 6.0]
    assert not np.shares_memory(ct.slots, arr) and not ct.slots.flags.writeable
    with pytest.raises(ValueError):
        ct.slots[0] = 5.0


def test_rot_cyclic_left():
    eng = make_engine(4)
    ct = eng.enc([1, 2, 3, 4])
    np.testing.assert_array_equal(eng.dec(eng.rot(ct, 1)), [2, 3, 4, 1])


def test_rot_zero_counts_but_preserves():
    eng = make_engine(4)
    ct = eng.enc([1, 2, 3, 4])
    before = eng.meter_snapshot().rot_count
    out = eng.rot(ct, 0)
    np.testing.assert_array_equal(eng.dec(out), [1, 2, 3, 4])
    assert eng.meter_snapshot().rot_count == before + 1


def test_rot_full_cycle_and_negative():
    eng = make_engine(4)
    ct = eng.enc([1, 2, 3, 4])
    np.testing.assert_array_equal(eng.dec(eng.rot(ct, 4)), [1, 2, 3, 4])
    np.testing.assert_array_equal(eng.dec(eng.rot(ct, -1)), [4, 1, 2, 3])


def test_rot_composition(rng):
    eng = make_engine(16)
    ct = eng.enc(rng.integers(-9, 9, 16))
    for _ in range(20):
        a, b = int(rng.integers(-40, 40)), int(rng.integers(-40, 40))
        lhs = eng.rot(eng.rot(ct, a), b)
        rhs = eng.rot(ct, a + b)
        np.testing.assert_array_equal(eng.dec(lhs), eng.dec(rhs))


def test_add_mul_commutative(rng):
    eng = make_engine(16)
    a = eng.enc(rng.uniform(-5, 5, size=16))
    b = eng.enc(rng.uniform(-5, 5, size=16))
    np.testing.assert_array_equal(eng.dec(eng.add(a, b)), eng.dec(eng.add(b, a)))
    np.testing.assert_array_equal(eng.dec(eng.mul(a, b)), eng.dec(eng.mul(b, a)))


def test_integer_inputs_stay_integer(rng):
    eng = make_engine(8)
    a = eng.enc(rng.integers(-50, 50, 8))
    b = eng.enc(rng.integers(-50, 50, 8))
    out = eng.dec(eng.mul(eng.add(a, b), b))
    assert np.all(out == np.trunc(out))


def test_depth_monotone_along_chain():
    eng = make_engine(4)
    ct = eng.enc([1, 2])
    depths = [ct.depth]
    ct = eng.mul(ct, ct)
    depths.append(ct.depth)
    ct = eng.cmul(eng.mask(np.ones(4)), ct)
    depths.append(ct.depth)
    ct = eng.rot(ct, 1)
    depths.append(ct.depth)
    assert depths == [0, 1, 2, 2]
    assert eng.meter_snapshot().max_depth == 2


def test_meter_counts_and_snapshot_isolation():
    eng = make_engine(4)
    assert eng.meter_snapshot() == OpMeter()
    eng.mul(eng.enc([1]), eng.enc([2]))
    snap = eng.meter_snapshot()
    assert snap.mul_count == 1 and snap.enc_count == 2
    snap.mul_count = 99  # mutating the snapshot must not touch the engine
    assert eng.meter_snapshot().mul_count == 1
    eng.rot(eng.enc([1]), 1)
    snap = eng.meter_snapshot()
    snap.rot_offsets.add(2)  # nor adding to its offset set
    assert eng.meter_snapshot().rot_offsets == eng.rot_offsets == {1}


def test_meter_merge_assoc_comm(rng):
    def random_meter():
        vals = rng.integers(0, 20, 6)
        offsets = {int(v) for v in rng.integers(0, 8, rng.integers(0, 4))}
        return OpMeter(*[int(v) for v in vals], rot_offsets=offsets)

    for _ in range(20):
        a, b, c = random_meter(), random_meter(), random_meter()
        assert a.merged(b) == b.merged(a)
        assert a.merged(b).merged(c) == a.merged(b.merged(c))
    merged = OpMeter(max_depth=3, rot_offsets={1}).merged(OpMeter(add_count=2, max_depth=5, rot_offsets={1, 4}))
    assert merged.max_depth == 5 and merged.add_count == 2 and merged.rot_offsets == {1, 4}


def test_mismatched_slot_counts_error():
    eng4, eng8 = make_engine(4), make_engine(8)
    with pytest.raises(EngineError):
        eng4.add(eng4.enc([1]), eng8.enc([1]))
    with pytest.raises(EngineError):
        eng4.cmul(eng8.mask(np.ones(8)), eng4.enc([1]))


SLOT_MISMATCH = "operands come from engines with different slot counts"


def test_cmul_and_rot_reject_another_engines_ciphertext():
    """A 2048-slot ciphertext on a 1024-slot engine fails with the add/mul
    message, before anything is metered or keyed."""
    eng, wide = make_engine(1024), make_engine(2048)
    ct = wide.enc(np.arange(2048.0))
    with pytest.raises(EngineError, match=SLOT_MISMATCH):
        eng.cmul(eng.mask(np.ones(1024)), ct)
    with pytest.raises(EngineError, match=SLOT_MISMATCH):
        eng.rot(ct, 1500)
    assert eng.meter_snapshot() == OpMeter() and eng.rot_offsets == set()


def test_accumulator_rejects_another_engines_ciphertext():
    eng, wide = make_engine(1024), make_engine(2048)
    ct, own = wide.enc(np.ones(2048)), eng.enc(np.ones(1024))
    mask = eng.mask(np.ones(1024))
    with pytest.raises(EngineError, match=SLOT_MISMATCH):
        eng.accumulator(ct)
    for started in (False, True):
        acc = eng.accumulator(own if started else None)
        for call in (lambda: acc.add(ct), lambda: acc.mul(own, ct), lambda: acc.cmul(mask, ct)):
            with pytest.raises(EngineError, match=SLOT_MISMATCH):
                call()
        if started:  # the seed alone is still a valid sum
            np.testing.assert_array_equal(acc.result().slots, np.ones(1024))
        else:
            with pytest.raises(EngineError, match="no terms"):
                acc.result()
    assert eng.meter_snapshot() == OpMeter(enc_count=1)


@pytest.mark.parametrize("offset", [0, 3], ids=["unrotated", "rotated"])
@pytest.mark.parametrize("lone", ["init", "added"])
def test_accumulator_returns_a_lone_term_without_copying(lone, offset):
    """A sum of one term shares that term's stored vector (no copy), but its
    ``slots`` is built privately: it shares no memory with the term's."""
    eng = make_engine(16)
    ct = eng.rot(eng.enc(np.arange(16.0)), offset) if offset else eng.enc(np.arange(16.0))
    if lone == "init":
        out = eng.accumulator(ct).result()
    else:
        acc = eng.accumulator()
        acc.add(ct)
        out = acc.result()
    assert out._vec is ct._vec
    assert out.slots.tobytes() == ct.slots.tobytes() and out.depth == ct.depth
    assert not np.shares_memory(out.slots, ct.slots) and not out.slots.flags.writeable
    assert eng.meter_snapshot().add_count == 0


def test_mask_checks_non_boolean_filters_and_trusts_boolean_patterns(rng):
    """A boolean pattern becomes a zero-padded 0/1 filter; numeric values
    are kept as given."""
    eng = make_engine(16)
    for values in (np.array([0.0, 1.0, 2.0]), [1, 0, -1], np.array([0, 1, 3], dtype=np.int64), [0.5]):
        assert eng.mask(values).values.tolist() == [*map(float, values), *[0.0] * (16 - len(values))]
    for size in (16, 11):
        pattern = rng.integers(0, 2, size).astype(bool)
        built = eng.mask(pattern)
        want = np.pad(pattern, (0, 16 - size)).astype(float)
        assert built.values.dtype == np.float64 and built.values.tobytes() == want.tobytes()
        assert not built.values.flags.writeable


def test_params_validation_and_defaults():
    with pytest.raises(EngineError):
        EngineParams(slots=3)
    with pytest.raises(EngineError):
        EngineParams(slots=1)
    assert EngineParams().slots == 32768


@st.composite
def slots_and_offset(draw):
    """A power-of-two slot count in [2, 4096] and a rotation offset that
    may be 0, negative, +-slots or beyond a full turn."""
    slots = 2 ** draw(st.integers(1, 12))
    edges = [0, 1, -1, slots, -slots, slots - 1, 1 - slots, slots + 1, -slots - 1, 2 * slots, -3 * slots + 1]
    l = draw(st.one_of(st.sampled_from(edges), st.integers(-3 * slots, 3 * slots)))
    return slots, l


@settings(max_examples=80, deadline=None)
@given(case=slots_and_offset(), seed=st.integers(0, 2**32 - 1))
def test_primitive_results_are_fresh_read_only_values(case, seed):
    slots, l = case
    rng = np.random.default_rng(seed)
    eng = make_engine(slots)
    payload = rng.integers(-9, 9, slots).astype(np.float64)
    short = rng.integers(-9, 9, int(rng.integers(0, slots + 1)))  # int, zero-padded by enc
    bits = rng.integers(0, 2, slots).astype(np.float64)
    a, b = eng.enc(payload), eng.enc(short)
    mask = eng.mask(bits)

    rotated = eng.rot(a, l)
    assert rotated.slots.tobytes() == np.roll(payload, -l).tobytes()

    results = [
        (a.slots, [payload]),
        (b.slots, [short]),
        (mask.values, [bits]),
        (rotated.slots, [a.slots]),
        (eng.add(a, b).slots, [a.slots, b.slots]),
        (eng.mul(a, b).slots, [a.slots, b.slots]),
        (eng.cmul(mask, a).slots, [mask.values, a.slots]),
    ]
    for out, operands in results:
        assert out.dtype == np.float64 and out.shape == (slots,)
        assert not out.flags.writeable
        assert not any(np.shares_memory(out, op) for op in operands)

    # the stored vectors are copies: later writes to the inputs do not reach them
    a_before, mask_before = a.slots.copy(), mask.values.copy()
    payload += 1.0
    bits[:] = 1.0 - bits
    np.testing.assert_array_equal(a.slots, a_before)
    np.testing.assert_array_equal(mask.values, mask_before)


@st.composite
def lazy_programs(draw):
    """A slot count in [2, 4096] and up to 12 steps of rot/add/mul/cmul over
    a growing pool of ciphertexts.  A step names its operands by pool index;
    "unrot" rotates by minus the operand's pending offset (plus a whole
    number of turns), so rotation chains that net to 0 come up often."""
    slots = 2 ** draw(st.integers(1, 12))
    edges = [0, 1, -1, slots, -slots, 2 * slots, -2 * slots, slots - 1, 1 - slots]
    offsets = st.one_of(st.sampled_from(edges), st.integers(-2 * slots, 2 * slots))
    steps, pool = [], 3
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(["rot", "rot", "unrot", "add", "mul", "cmul"]))
        i, j = draw(st.integers(0, pool - 1)), draw(st.integers(0, pool - 1))
        arg = draw(offsets) if op == "rot" else draw(st.integers(-1, 1))
        steps.append((op, i, j, arg, draw(st.booleans())))
        pool += 1
    return slots, steps


@settings(max_examples=120, deadline=None)
@given(program=lazy_programs(), seed=st.integers(0, 2**32 - 1))
def test_lazy_rotation_equals_eager_rotation(program, seed, tmp_path_factory):
    """Every result, count and rotation key equals a model that rotates
    eagerly with np.roll; ``slots`` views are read-only and private."""
    slots, steps = program
    rng = np.random.default_rng(seed)
    eng = make_engine(slots)
    start = [rng.uniform(-1.0, 1.0, slots) for _ in range(3)]
    pool = [eng.enc(v) for v in start]
    model = [(v, 0) for v in start]  # (eager slot vector, depth)
    counts = {"rot": 0, "add": 0, "mul": 0, "cmul": 0}
    keys = set()
    for op, i, j, arg, peek in steps:
        (x, dx), (y, dy) = model[i], model[j]
        if op in ("rot", "unrot"):
            l = arg if op == "rot" else -pool[i].offset + arg * slots
            pool.append(eng.rot(pool[i], l))
            model.append((np.roll(x, -l), dx))
            keys.add(l % slots)
            op = "rot"
        elif op == "add":
            pool.append(eng.add(pool[i], pool[j]))
            model.append((x + y, max(dx, dy)))
        elif op == "mul":
            pool.append(eng.mul(pool[i], pool[j]))
            model.append((x * y, max(dx, dy) + 1))
        else:
            consts = rng.integers(-2, 3, slots).astype(np.float64)
            pool.append(eng.cmul(eng.mask(consts), pool[i]))
            model.append((consts * x, dx + 1))
        counts[op] += 1
        if peek:  # read some slots mid-program, before later steps use the ciphertext
            assert pool[-1].slots.tobytes() == model[-1][0].tobytes()

    for ct, (want, depth) in zip(pool, model):
        assert eng.dec(ct).tobytes() == want.tobytes()
        assert ct.slots.tobytes() == want.tobytes() and ct.depth == depth
        assert not ct.slots.flags.writeable
    views = [ct.slots for ct in pool]
    for a in range(len(views)):
        for b in range(a + 1, len(views)):
            assert not np.shares_memory(views[a], views[b])
    meter = eng.meter_snapshot()
    assert (meter.rot_count, meter.add_count, meter.mul_count, meter.cmul_count) == (
        counts["rot"], counts["add"], counts["mul"], counts["cmul"]
    )
    assert meter.enc_count == 3 and meter.max_depth == max(d for _, d in model)
    assert eng.rot_offsets == keys

    # a rotated-then-added result serializes as its rotated slot vector
    l = int(rng.integers(-2 * slots, 2 * slots + 1))
    summed = eng.add(eng.rot(pool[0], l), pool[1])
    path = tmp_path_factory.mktemp("lazy") / "sum.simct"
    write_ciphertext(path, summed)
    vec, header = read_ciphertext(path)
    assert vec.tobytes() == (np.roll(start[0], -l) + start[1]).tobytes()
    assert header["slots"] == slots and header["depth"] == 0
    copied = pickle.loads(pickle.dumps(summed))
    assert copied.slots.tobytes() == vec.tobytes() and copied.depth == summed.depth
    with pytest.raises(AttributeError):
        summed.depth = 0  # the public fields are read-only


@st.composite
def accumulations(draw):
    """A slot count, an optional seed and 1-8 terms of add/mul/cmul.  Every
    ciphertext operand gets a lazy offset (often 0, so its ``slots`` is its
    stored vector) and a depth of 0-2."""
    slots = 2 ** draw(st.integers(1, 10))
    offsets = st.one_of(st.just(0), st.integers(-2 * slots, 2 * slots))
    operand = st.tuples(offsets, st.integers(0, 2))
    init = draw(st.none() | operand)
    ops = draw(st.lists(st.sampled_from(["add", "mul", "cmul"]), min_size=1, max_size=8))
    terms = [(op, [draw(operand) for _ in range(2 if op == "mul" else 1)]) for op in ops]
    return slots, init, terms


@settings(max_examples=150, deadline=None)
@given(case=accumulations(), seed=st.integers(0, 2**32 - 1))
def test_accumulator_equals_the_unfused_chain(case, seed):
    """``acc.mul(a, b)`` equals ``acc = add(acc, mul(a, b))`` bit for bit,
    with the same meter, depth and keys, and writes no operand."""
    slots, init_spec, terms = case
    rng = np.random.default_rng(seed)
    values = {}

    def operand(eng, key, offset, depth):
        if key not in values:
            values[key] = rng.integers(-9, 10, slots) * rng.uniform(0.5, 2.0)
        ct = eng.enc(values[key])
        for _ in range(depth):
            ct = eng.mul(ct, eng.enc(np.ones(slots)))  # times one: same values, one level deeper
        return eng.rot(ct, offset) if offset else ct  # unrotated, ``slots`` is the stored vector

    def build(eng):
        """(init, [(op, args)], [(ct, key, offset)] of every ciphertext operand)."""
        init = None if init_spec is None else operand(eng, "init", *init_spec)
        made = [] if init is None else [(init, "init", init_spec[0])]
        steps = []
        for t, (op, specs) in enumerate(terms):
            cts = [operand(eng, (t, i), *spec) for i, spec in enumerate(specs)]
            made += [(ct, (t, i), spec[0]) for i, (ct, spec) in enumerate(zip(cts, specs))]
            if op == "cmul":
                values.setdefault((t, "mask"), rng.integers(-2, 3, slots).astype(np.float64))
                cts.insert(0, eng.mask(values[(t, "mask")]))
            steps.append((op, cts))
        return init, steps, made

    fused, chain = make_engine(slots), make_engine(slots)
    f_init, f_steps, operands = build(fused)
    c_init, c_steps, _ = build(chain)

    f_spent, c_spent = {}, {}
    with fused.scope("sum", f_spent):
        acc = fused.accumulator(f_init)
        for op, args in f_steps:
            getattr(acc, op)(*args)
        out = acc.result()
    with chain.scope("sum", c_spent):
        want = c_init
        for op, args in c_steps:
            term = args[0] if op == "add" else getattr(chain, op)(*args)
            want = term if want is None else chain.add(want, term)

    assert out.slots.tobytes() == want.slots.tobytes() and out.depth == want.depth
    assert f_spent == c_spent
    assert fused.meter_snapshot() == chain.meter_snapshot() and fused.rot_offsets == chain.rot_offsets

    assert not out.slots.flags.writeable
    for ct, key, offset in operands:
        assert ct.slots.tobytes() == np.roll(values[key], -offset).tobytes()
        assert not np.shares_memory(out.slots, ct.slots)
    for t, (op, args) in enumerate(f_steps):
        if op == "cmul":
            assert args[0].values.tobytes() == values[(t, "mask")].tobytes()
            assert not np.shares_memory(out.slots, args[0].values)

    ct = operands[0][0]
    for call in (lambda: acc.add(ct), lambda: acc.mul(ct, ct), lambda: acc.cmul(fused.mask(np.ones(slots)), ct), acc.result):
        with pytest.raises(EngineError, match="closed"):
            call()
