"""Generic GF(2^w) finite fields (w = 8 or 16).

The paper's codes operate over GF(2^w) "over w-bit words" (Section II-A).
GF(2^8) covers every production code in the evaluation (n <= 255); GF(2^16)
lifts that ceiling for *wide stripes* (the ECWide [22] setting from the
same group, n up to 65535).

Two kinds of product live here.  Element-wise products of two arrays
(:meth:`GaloisField.mul`, used on generator matrices and scalars) go
through discrete log/exp tables.  The data plane is a different shape —
one *coefficient* times a long word buffer, XOR-accumulated
(Section II-B) — and runs as one table gather: the coefficient's 65536-
entry uint16 table indexed by the buffer read as 16-bit words
(:meth:`GaloisField.mul_slice`, :meth:`GaloisField.addmul`,
:meth:`GaloisField.linear_combination`).

Everything is built lazily on first use and bounded.  GF(2^8): the
256 x 256 product table (64 KiB) and one reused 128 KiB coefficient
table, besides 2 KiB of log/exp.  GF(2^16): exp (4 x 65535 uint16,
512 KiB), log (65536 int32, 256 KiB) and the same one reused 128 KiB
coefficient table.  That reused table makes a field object unsafe to
share between threads.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GaloisFieldError

#: Standard primitive polynomials per word size.
PRIMITIVE_POLYNOMIALS = {
    8: 0x11D,  # x^8 + x^4 + x^3 + x^2 + 1 (ISA-L's default)
    16: 0x1100B,  # x^16 + x^12 + x^3 + x + 1
}


class GaloisField:
    """GF(2^w) arithmetic over numpy word arrays."""

    #: Words gathered per ``np.take``: numpy widens the indices to 8
    #: bytes each, and 256 KiB of them stay in cache beside the 128 KiB
    #: table (measured 0.40 ms/MiB against 0.73 in one call); it also caps
    #: the transient memory of a product whatever the buffer's length.
    _GATHER_BLOCK_WORDS = 32768

    #: Shortest buffer, in 16-bit words per field width, worth deriving
    #: the coefficient's table for (15 us for GF(2^8), 35 us for
    #: GF(2^16)).  Measured break-even against the short forms: the
    #: 256-entry product-row gather for GF(2^8), :meth:`mul` for GF(2^16).
    _WIDE_MIN_WORDS = {8: 32768, 16: 4096}

    def __init__(self, w: int, primitive_poly: int | None = None):
        if w not in (8, 16):
            raise GaloisFieldError(f"unsupported word size w={w}")
        self.w = w
        self.order = 1 << w
        self.poly = (
            primitive_poly
            if primitive_poly is not None
            else PRIMITIVE_POLYNOMIALS[w]
        )
        self.dtype = np.uint8 if w == 8 else np.uint16
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._products: np.ndarray | None = None
        self._wide: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"GaloisField(2^{self.w}, poly={self.poly:#x})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaloisField):
            return NotImplemented
        return (self.w, self.poly) == (other.w, other.poly)

    def __hash__(self) -> int:
        return hash((GaloisField, self.w, self.poly))

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Discrete ``exp`` and ``log``, laid out so products need no mask.

        ``exp`` repeats its period once, so ``exp[log a + log b]`` needs
        no modulo, and is zero from ``2 * period`` on; ``log[0]`` is that
        ``2 * period``, so any product with a zero factor lands there.
        """
        if self._exp is None:
            period = self.order - 1
            exp = np.zeros(4 * period + 1, dtype=self.dtype)
            log = np.zeros(self.order, dtype=np.int32)
            x = 1
            for i in range(period):
                exp[i] = x
                log[x] = i
                x <<= 1
                if x & self.order:
                    x ^= self.poly
            exp[period : 2 * period] = exp[:period]
            log[0] = 2 * period
            self._exp, self._log = exp, log
        return self._exp, self._log

    def _product_table(self) -> np.ndarray:
        """GF(2^8) only: ``table[a, b] = a * b``, 64 KiB."""
        if self._products is None:
            elements = np.arange(self.order, dtype=self.dtype)
            self._products = self.mul(elements[:, None], elements[None, :])
        return self._products

    def _wide_table(self, coefficient: int) -> np.ndarray:
        """65536-entry table of ``coefficient`` times every 16-bit word.

        A word is two GF(2^8) bytes or one GF(2^16) element; either way
        the product is linear over its two bytes, so the table is the
        outer XOR of two 256-entry rows, written into one reused buffer.
        """
        if self.w == 8:
            low = self._product_table()[coefficient].astype(np.uint16)
            high = low << 8
        else:
            byte = np.arange(256, dtype=np.uint16)
            low, high = self.mul(coefficient, np.stack([byte, byte << 8]))
        if self._wide is None:
            self._wide = np.empty((256, 256), dtype=np.uint16)
        np.bitwise_xor(high[:, None], low[None, :], out=self._wide)
        return self._wide.reshape(-1)

    def as_words(self, values) -> np.ndarray:
        """``values`` as an array of this field's word dtype.

        An array that already has the dtype passes through untouched, so
        the data plane pays nothing; anything else (wider integers,
        Python ints, lists) is range-checked before the cast, which
        would otherwise wrap 256 to 0 silently.
        """
        words = np.asarray(values)
        if words.dtype == self.dtype:
            return words
        if words.size:  # an empty list arrives as float64
            if words.dtype.kind not in "iub":
                raise GaloisFieldError(
                    f"GF(2^{self.w}) words must be integers, "
                    f"got {words.dtype}"
                )
            if words.min() < 0 or words.max() >= self.order:
                raise GaloisFieldError(f"word outside GF(2^{self.w})")
        return words.astype(self.dtype)

    def _check_coefficient(self, coefficient: int) -> None:
        if not 0 <= coefficient < self.order:
            raise GaloisFieldError(
                f"coefficient {coefficient} outside GF(2^{self.w})"
            )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def mul(self, a, b):
        """Element-wise product of scalars or word arrays."""
        exp, log = self._tables()
        a = self.as_words(a)
        b = self.as_words(b)
        result = exp[log[a] + log[b]]
        if result.ndim == 0:
            return int(result)
        return result

    def inv(self, a):
        """Multiplicative inverse of nonzero elements."""
        exp, log = self._tables()
        arr = self.as_words(a)
        if np.any(arr == 0):
            raise GaloisFieldError(
                f"zero has no multiplicative inverse in GF(2^{self.w})"
            )
        result = exp[(self.order - 1) - log[arr]]
        if result.ndim == 0:
            return int(result)
        return result

    def pow(self, a: int, exponent: int) -> int:
        if not 0 <= a < self.order:
            raise GaloisFieldError(f"element {a} outside GF(2^{self.w})")
        if a == 0:
            if exponent == 0:
                return 1
            if exponent < 0:
                raise GaloisFieldError("zero has no negative powers")
            return 0
        exp, log = self._tables()
        period = self.order - 1
        return int(exp[(int(log[a]) * exponent) % period])

    # ------------------------------------------------------------------
    # Data plane: one coefficient times a word buffer
    # ------------------------------------------------------------------
    def _scale_into(
        self, out: np.ndarray, coefficient: int, data: np.ndarray
    ) -> None:
        """``out[...] = coefficient * data`` — the one bulk kernel.

        ``out`` is a fresh C-contiguous array of ``data``'s shape and
        dtype; ``data`` may be any view and is only read.  A long buffer
        is read as 16-bit words and gathered, block by block, through
        the coefficient's 65536-entry table: about 0.5 ms/MiB for
        GF(2^8) against 4.3 for log/exp over the buffer.  Shorter than
        :attr:`_WIDE_MIN_WORDS` the table costs more than it saves.
        """
        words = data.size * self.w // 16
        if words < self._WIDE_MIN_WORDS[self.w]:
            if self.w == 8:
                np.take(
                    self._product_table()[coefficient], data, out=out,
                    mode="wrap",
                )
            else:
                # A typed scalar passes ``as_words`` without a range check
                # (the coefficient was checked by the caller).
                out[...] = self.mul(self.dtype(coefficient), data)
            return
        table = self._wide_table(coefficient)
        src = np.ascontiguousarray(data).reshape(-1)
        dst = out.reshape(-1)
        if self.w == 8:
            if data.size % 2:
                dst[-1] = self._product_table()[coefficient, src[-1]]
            src = src[: 2 * words].view(np.uint16)
            dst = dst[: 2 * words].view(np.uint16)
        block = self._GATHER_BLOCK_WORDS
        for start in range(0, words, block):
            # 16-bit indices cannot leave the table: mode skips the check
            # and, with it, numpy's buffering of ``out``.
            np.take(
                table, src[start : start + block],
                out=dst[start : start + block], mode="wrap",
            )

    def mul_slice(self, coefficient: int, data: np.ndarray) -> np.ndarray:
        """``coefficient * data`` as a fresh array; ``data`` is not touched."""
        self._check_coefficient(coefficient)
        data = self.as_words(data)
        if coefficient == 0:
            return np.zeros_like(data)
        if coefficient == 1:
            return data.copy()
        out = np.empty(data.shape, dtype=self.dtype)
        self._scale_into(out, coefficient, data)
        return out

    def addmul(
        self,
        acc: np.ndarray,
        coefficient: int,
        data: np.ndarray,
        scratch: np.ndarray | None = None,
    ) -> None:
        """``acc ^= coefficient * data`` in place (multiply-accumulate).

        ``acc`` is the caller's accumulator of this field's dtype and
        ``data``'s shape.  ``scratch`` — any fresh C-contiguous array of
        the same shape and dtype — receives the product before the XOR; a
        caller accumulating many terms passes one and saves an allocation
        per term.
        """
        self._check_coefficient(coefficient)
        data = self.as_words(data)
        if acc.dtype != self.dtype or acc.shape != data.shape:
            raise GaloisFieldError(
                f"accumulator {acc.dtype}{acc.shape} does not match "
                f"data {data.dtype}{data.shape}"
            )
        if coefficient == 0:
            return
        if coefficient == 1:
            np.bitwise_xor(acc, data, out=acc)
            return
        if scratch is None:
            scratch = np.empty(data.shape, dtype=self.dtype)
        self._scale_into(scratch, coefficient, data)
        np.bitwise_xor(acc, scratch, out=acc)

    def linear_combination(self, coefficients, buffers) -> np.ndarray:
        """``XOR_i coefficients[i] * buffers[i]`` as a fresh array.

        The data-plane entry point: parity rows, decode rows, the repair
        equation and a helper's partial result (children enter with
        coefficient 1) are all this sum.  The first product is written
        straight into the result and the rest share one scratch buffer.
        """
        coefficients = [int(c) for c in coefficients]
        if not coefficients or len(coefficients) != len(buffers):
            raise GaloisFieldError(
                f"{len(coefficients)} coefficients for {len(buffers)} buffers"
            )
        acc = self.mul_slice(coefficients[0], buffers[0])
        scratch = np.empty(acc.shape, dtype=self.dtype)
        for coefficient, data in zip(coefficients[1:], buffers[1:]):
            self.addmul(acc, coefficient, data, scratch)
        return acc


#: The default field used throughout the library (all paper codes fit).
GF256 = GaloisField(8)

#: Wide-stripe field: stripes up to n = 65535.
GF65536 = GaloisField(16)
