"""The table-gather kernel against the log/exp oracle.

``GaloisField.mul_slice`` / ``addmul`` / ``linear_combination`` multiply
a long buffer by one coefficient through a 65536-entry table gather over
16-bit words; ``tests/ec/logexp_oracle.py`` is the routine they replaced.
Every byte must agree for every coefficient, length (both sides of the
short/wide threshold and of the gather block) and view (offset, strided),
and the kernel must neither write its inputs nor hand them back.

The last class is the data-plane gate: the differential at 1 MiB
for both fields and a *ratio* against the oracle — machine-independent,
so an edit that falls back to the slow form fails without a wall-clock
floor.
"""

import statistics
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.field import GF256, GF65536
from repro.ec.reed_solomon import RSCode

from tests.ec.logexp_oracle import logexp_linear_combination, logexp_mul_slice
from tests.ec.repair_equation import repair

FIELDS = {"gf256": GF256, "gf65536": GF65536}
MIB = 1 << 20


def threshold_elements(field) -> int:
    """Buffer length (elements) at which the wide gather takes over."""
    return field._WIDE_MIN_WORDS[field.w] * 16 // field.w


def interesting_lengths(field) -> list[int]:
    edge = threshold_elements(field)
    block = field._GATHER_BLOCK_WORDS * 16 // field.w
    return [
        0, 1, 2, 3, 7, 64, 255,
        edge - 2, edge - 1, edge, edge + 1, edge + 2,
        edge + block - 1, edge + block + 1, 2 * block + 5,
    ]


def words(field, rng, size) -> np.ndarray:
    return rng.integers(0, field.order, size=size).astype(field.dtype)


@st.composite
def kernel_cases(draw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    coefficient = draw(
        st.one_of(
            st.sampled_from([0, 1, 2, field.order - 1]),
            st.integers(0, field.order - 1),
        )
    )
    length = draw(st.sampled_from(interesting_lengths(field)))
    offset = draw(st.integers(0, 3))
    step = draw(st.sampled_from([1, 1, 1, 2, 3, -1]))
    seed = draw(st.integers(0, 2**16))
    return field, coefficient, length, offset, step, seed


def make_view(field, length, offset, step, seed) -> tuple[np.ndarray, np.ndarray]:
    """A ``length``-element view into a larger base buffer, and the base."""
    rng = np.random.default_rng(seed)
    span = length * abs(step)
    base = words(field, rng, offset + span + 3)
    view = base[offset : offset + span][::step]
    assert view.size == length
    return view, base


class TestKernelMatchesOracle:
    @settings(max_examples=250, deadline=None)
    @given(kernel_cases())
    def test_mul_slice(self, case):
        field, coefficient, length, offset, step, seed = case
        view, base = make_view(field, length, offset, step, seed)
        before = base.copy()
        out = field.mul_slice(coefficient, view)
        np.testing.assert_array_equal(
            out, logexp_mul_slice(field, coefficient, view.copy())
        )
        assert out.dtype == field.dtype and out.shape == view.shape
        np.testing.assert_array_equal(base, before)  # input never mutated
        assert not np.shares_memory(out, base)  # not even for 0 and 1
        out[...] = 0  # writable, and writing it leaves the input alone
        np.testing.assert_array_equal(base, before)

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases(), st.booleans())
    def test_addmul(self, case, with_scratch):
        field, coefficient, length, offset, step, seed = case
        view, base = make_view(field, length, offset, step, seed)
        before = base.copy()
        acc = words(field, np.random.default_rng(seed + 1), length)
        expected = acc ^ logexp_mul_slice(field, coefficient, view.copy())
        scratch = np.empty(length, dtype=field.dtype) if with_scratch else None
        assert field.addmul(acc, coefficient, view, scratch) is None
        np.testing.assert_array_equal(acc, expected)
        np.testing.assert_array_equal(base, before)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(FIELDS)),
        st.integers(1, 6),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_linear_combination(self, name, terms, seed, data):
        field = FIELDS[name]
        length = data.draw(st.sampled_from(interesting_lengths(field)))
        rng = np.random.default_rng(seed)
        coefficients = [
            data.draw(
                st.one_of(
                    st.sampled_from([0, 1, field.order - 1]),
                    st.integers(0, field.order - 1),
                )
            )
            for _ in range(terms)
        ]
        buffers = [words(field, rng, length) for _ in range(terms)]
        before = [b.copy() for b in buffers]
        out = field.linear_combination(coefficients, buffers)
        np.testing.assert_array_equal(
            out, logexp_linear_combination(field, coefficients, buffers)
        )
        for buffer, saved in zip(buffers, before):
            np.testing.assert_array_equal(buffer, saved)
            assert not np.shares_memory(out, buffer)

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_every_coefficient_small_field_sample(self, name):
        # All 256 coefficients of GF(2^8); a spread of GF(2^16)'s.
        field = FIELDS[name]
        rng = np.random.default_rng(5)
        data = words(field, rng, threshold_elements(field) + 3)
        coefficients = (
            range(256) if field.w == 8
            else [int(c) for c in rng.integers(0, field.order, size=64)]
        )
        for coefficient in coefficients:
            np.testing.assert_array_equal(
                field.mul_slice(coefficient, data),
                logexp_mul_slice(field, coefficient, data),
            )

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_two_dimensional_buffer(self, name):
        field = FIELDS[name]
        edge = threshold_elements(field)
        data = words(field, np.random.default_rng(8), (3, edge + 1))
        out = field.mul_slice(9, data)
        assert out.shape == data.shape
        np.testing.assert_array_equal(out, logexp_mul_slice(field, 9, data))
        column = data[:, ::2]  # not contiguous
        np.testing.assert_array_equal(
            field.mul_slice(9, column),
            logexp_mul_slice(field, 9, np.ascontiguousarray(column)),
        )


class TestMegabyteRoundTrips:
    """1 MiB chunks through encode, decode and single-chunk repair."""

    @pytest.mark.parametrize("n,k", [(6, 4), (14, 10)])
    def test_encode_decode_repair(self, n, k):
        code = RSCode(n, k)
        rng = np.random.default_rng(n * 100 + k)
        data = [words(GF256, rng, MIB) for _ in range(k)]
        stripe = code.encode(data)
        for row, parity in zip(code._generator[k:], stripe[k:]):
            np.testing.assert_array_equal(
                parity, logexp_linear_combination(GF256, row, data)
            )
        survivors = sorted(
            int(i) for i in rng.choice(n, size=k, replace=False)
        )
        decoded = code.decode({i: stripe[i] for i in survivors})
        for got, want in zip(decoded, data):
            np.testing.assert_array_equal(got, want)
        lost = next(i for i in range(n) if i not in survivors)
        rebuilt = repair(code, lost, {i: stripe[i] for i in survivors})
        np.testing.assert_array_equal(rebuilt, stripe[lost])


class TestDataPlaneGate:
    """The data-plane gate (``-k DataPlaneGate``)."""

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_differential_at_one_mebibyte(self, name):
        field = FIELDS[name]
        rng = np.random.default_rng(3)
        data = words(field, rng, MIB * 8 // field.w)
        for coefficient in (2, 0x53, field.order - 1):
            np.testing.assert_array_equal(
                field.mul_slice(coefficient, data),
                logexp_mul_slice(field, coefficient, data),
            )

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_kernel_at_least_twice_the_oracle(self, name):
        field = FIELDS[name]
        data = words(field, np.random.default_rng(4), MIB * 8 // field.w)
        clock = time.perf_counter
        field.mul_slice(7, data), logexp_mul_slice(field, 7, data)  # warm
        ratios = []
        for _ in range(9):  # interleaved pairs: drift hits both sides
            started = clock()
            logexp_mul_slice(field, 7, data)
            middle = clock()
            field.mul_slice(7, data)
            ratios.append((middle - started) / (clock() - middle))
        assert statistics.median(ratios) >= 2.0, sorted(ratios)
