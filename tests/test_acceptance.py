"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces both exact-equivalence tolerances and runtime limits.
"""

import io
import shutil
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from packedhe.bench import SUMMATION_NOTE, format_report, measure_matmul_steps
from packedhe.cli import main
from packedhe.conv import ImageShape, Kernel, conv, kernel_spanner, sum_for_conv
from packedhe.encoding import encode_row_major, sum_col_vec
from packedhe.engine import EngineParams, SlotEngine, next_pow2
from packedhe.matmul import matmul
from packedhe.multicipher import (
    conv_columns,
    encode_image_columns,
    encode_left,
    encode_right,
    matmul_outer,
    reassemble_columns,
)
from packedhe.oracle import oracle_conv, oracle_forward, oracle_matmul
from packedhe.pipeline import (
    IMAGES_PER_CT,
    PIPELINE_DEPTH,
    argmax_decide,
    batch_layout,
    encode_model,
    forward_encoded,
    pack_batch,
)
from packedhe.serial import load_indexed_batch
from packedhe.virtual import VirtualLayout, batched_conv, tile_kernel_span, vrot

from conftest import make_engine, rand_int_matrix
from test_datafiles import write_idx_images
from test_matmul import encode_pair
from test_pipeline import random_weights


@contextmanager
def criterion(number: int, label: str, limit_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed < limit_s else "FAIL (over time limit)"
    print(f"ACCEPTANCE {number} {label}: {status} ({elapsed:.1f}s, limit {limit_s:.0f}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.1f}s)"


GRID = (1, 2, 4, 8)


def test_criterion_1_matmul_equivalence(rng):
    with criterion(1, "matmul equivalence on the (m,n,p) grid", 30):
        for m in GRID:
            for n in GRID:
                for p in GRID:
                    slots = max(2, max(m, p) * max(n, p))
                    eng = make_engine(slots)
                    for _ in range(20):
                        a = rand_int_matrix(rng, m, n)
                        b = rand_int_matrix(rng, n, p)
                        ca, cb = encode_pair(eng, a, b)
                        got = matmul(eng, ca, cb).decode(eng)[:m, :p]
                        np.testing.assert_array_equal(got, oracle_matmul(a, b))


def test_criterion_2_multi_ciphertext_agreement(rng):
    with criterion(2, "multi-ciphertext agreement + zero rotations", 30):
        for m in GRID:
            for n in GRID:
                for p in GRID:
                    eng_rot = make_engine(max(2, max(m, p) * max(n, p)))
                    eng_outer = make_engine(max(2, m * p))
                    for _ in range(20):
                        a = rand_int_matrix(rng, m, n)
                        b = rand_int_matrix(rng, n, p)
                        want = oracle_matmul(a, b)

                        ca, cb = encode_pair(eng_rot, a, b)
                        rotation_based = matmul(eng_rot, ca, cb).decode(eng_rot)[:m, :p]

                        left = encode_left(eng_outer, a, p)
                        right = encode_right(eng_outer, b, m)
                        spent = {}
                        with eng_outer.scope("call", spent):
                            outer = matmul_outer(eng_outer, left, right).decode(eng_outer)
                        delta = spent["call"]

                        np.testing.assert_array_equal(rotation_based, want)
                        np.testing.assert_array_equal(outer, want)
                        assert delta.rot_count == 0


def test_criterion_3_convolution_equivalence(rng):
    with criterion(3, "convolution equivalence (packed and column domains)", 60):
        for k in (2, 3, 5):
            for h in range(4, 13):
                for w in range(4, 13):
                    if h < 2 * k - 1 or w < 2 * k - 1:
                        continue
                    eng = make_engine(next_pow2(h * w))
                    shape = ImageShape(h, w)
                    for _ in range(10):
                        img = rand_int_matrix(rng, h, w)
                        kern = Kernel(rand_int_matrix(rng, k, k), bias=float(rng.integers(-2, 3)))
                        want = oracle_conv(img, kern.weights, kern.bias)

                        span = kernel_spanner(eng, kern, shape)
                        got = eng.dec(conv(eng, eng.enc(img.reshape(-1)), span, shape))
                        got = got[: h * w].reshape(h, w)[: h - k + 1, : w - k + 1]
                        np.testing.assert_array_equal(got, want)

                        cols = encode_image_columns(eng, img)
                        re = reassemble_columns(eng, conv_columns(eng, cols, kern))[0]
                        np.testing.assert_array_equal(re, want)


def test_criterion_4_batched_amortization(rng):
    with criterion(4, "batched convolution cost independent of batch size", 30):
        def run(m):
            eng = make_engine(m * 1024)
            layout = batch_layout(m * 1024)
            kern = Kernel(rand_int_matrix(rng, 3, 3), bias=0.5)
            span = tile_kernel_span(eng, kern, layout)
            imgs = rng.uniform(0, 1, size=(m, 28, 28))
            ct = pack_batch(eng, imgs, layout)
            spent = {}
            with eng.scope("call", spent):
                batched_conv(eng, ct, layout, span)
            return spent["call"]

        assert run(1) == run(32)


def test_criterion_5_vrot_semantics(rng):
    with criterion(5, "virtual rotation equals per-image cyclic rotation", 10):
        for _ in range(200):
            m = int(rng.choice([1, 2, 4, 8]))
            h = int(rng.integers(2, 7))
            w = int(rng.integers(2, 7))
            f = next_pow2(h * w)
            eng = make_engine(m * f)
            layout = VirtualLayout(m, f, h, w)
            imgs = rand_int_matrix(rng, m, h * w, -9, 10)
            grid = np.zeros((m, f))
            grid[:, : h * w] = imgs
            ct = eng.enc(grid.reshape(-1))
            r = int(rng.integers(0, h * w))
            got = eng.dec(vrot(eng, ct, layout, r)).reshape(m, f)
            np.testing.assert_array_equal(got[:, : h * w], np.roll(imgs, -r, axis=1))
            assert np.count_nonzero(got[:, h * w :]) == 0


def test_criterion_6_cost_table_conformance(rng):
    with criterion(6, "per-step operation counts match the cost contracts", 10):
        # masked row-cycle path: Add 1 / cMult 2 / Rot 2 / Mult 1
        general = measure_matmul_steps(3, 4, 2)
        assert (general[0].add, general[0].cmul, general[0].rot, general[0].mul) == (1, 2, 2, 1)
        # result filter: cMult 1; accumulate: Add 1
        assert (general[2].add, general[2].cmul, general[2].rot, general[2].mul) == (0, 1, 0, 0)
        assert (general[3].add, general[3].cmul, general[3].rot, general[3].mul) == (1, 0, 0, 0)
        # single-rotation path: Rot 1, no masks
        fast = measure_matmul_steps(4, 4, 2)
        assert (fast[0].add, fast[0].cmul, fast[0].rot, fast[0].mul) == (0, 0, 1, 1)

        # window summation: exactly 2k rotations
        for h, w, k in [(4, 4, 2), (8, 8, 3), (12, 12, 5)]:
            eng = make_engine(next_pow2(h * w))
            ct = eng.enc(rand_int_matrix(rng, h, w).reshape(-1))
            spent = {}
            with eng.scope("call", spent):
                sum_for_conv(eng, ct, ImageShape(h, w), k)
            assert spent["call"].rot_count == 2 * k

        # row summation stays within 2*log2(n) rotations for any n
        for n in (2, 4, 16, 64):
            eng = make_engine(256)
            pm = encode_row_major(eng, rand_int_matrix(rng, 2, n))
            spent = {}
            with eng.scope("call", spent):
                sum_col_vec(eng, pm)
            assert spent["call"].rot_count <= 2 * (n.bit_length() - 1)

        # the p-vs-n rotation deviation is recorded in the bench report
        report = format_report([(4, 4, 2)], [(4, 4, 2)])
        assert SUMMATION_NOTE in report
        assert "EXCEEDS" not in report


def test_criterion_7_end_to_end_pipeline(rng):
    with criterion(7, "encrypted pipeline matches the plaintext forward pass", 300):
        weights = random_weights(rng)
        for trial in range(3):
            eng = make_engine(32768)
            model = encode_model(eng, weights)
            imgs = rng.uniform(0, 1, size=(32, 28, 28))
            ct = pack_batch(eng, imgs)
            scores = forward_encoded(eng, ct, model)
            got = scores.decode(eng)[:, :10]
            want = oracle_forward(weights, imgs)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)
            labels = argmax_decide(eng, scores)
            np.testing.assert_array_equal(labels, np.argmax(want, axis=1))
            assert len(labels) == 32
            assert eng.meter_snapshot().max_depth == PIPELINE_DEPTH


def test_criterion_8_packing_arithmetic(tmp_path):
    with criterion(8, "owner-encode packs 10000 images into 313 ciphertexts", 10):
        idx = tmp_path / "zeros.idx"
        write_idx_images(idx, np.zeros((10000, 28, 28)))
        out = tmp_path / "batches"
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            assert main(["owner-encode", "--images", str(idx), "--out-dir", str(out), "--slots", "32768"]) == 0
        assert stdout.getvalue() == (
            "packed 10000 images into 313 batch files (32 per ciphertext, final batch zero-filled by 16)\n"
        )
        paths = sorted(out.glob("*.simct"))
        assert len(paths) == 313
        eng = SlotEngine(EngineParams(slots=32768))
        _, layout, valid, first = load_indexed_batch(eng, paths[-1])
        assert layout.m == IMAGES_PER_CT == 32 and layout.f == next_pow2(28 * 28) == 1024
        assert (valid, first) == (32 - 16, 312 * 32)
        shutil.rmtree(out)  # 313 files of 256 KiB each


@pytest.mark.skip(
    reason="optional: needs a model trained externally on MNIST; inference-side "
    "ingestion and verification are covered by criterion 7 and the CLI tests"
)
def test_criterion_9_accuracy_reproduction():
    pass
