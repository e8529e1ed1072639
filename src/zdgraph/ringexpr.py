"""Parser and renderer for the textual ring-expression grammar.

    expr     := atom { " x " atom }
    atom     := "Z/" nat
              | "GF(" nat ")"
              | "Z/" nat "[x]/(" poly ")"
              | "FamA(" prime "," nat ")" | "FamB(" prime ")"
              | "FamC(" prime ")" | "FamD(" prime ")"
    poly     := monic polynomial in x, e.g. "x^2", "x^3+2x+1"

The standalone token "x" separates product factors; inside "[x]/(...)"
it is the polynomial variable.  GF accepts any prime power and factors it.
Error positions are 1-based columns into the original string.

Numbers have at most MAX_DIGITS digits, and exponents of x and FamA's
alpha are at most MAX_EXPONENT; past either bound the ring would have far
more elements than any cap allows.  The bounds keep parsing linear in the
input and every primality test below 10^24, where it is exact and fast.
"""

from __future__ import annotations

import math

from .errors import NonMonicModulus, RingSemanticError, RingSyntaxError, ZdgError
from .rings import GF, FamA, FamB, FamC, FamD, MonicQuotient, Product, RingSpec, Zn, is_prime


MAX_DIGITS = 24
MAX_EXPONENT = 64


class _Cursor:
    def __init__(self, text: str, offset: int = 0):
        self.text = text
        self.pos = 0
        self.offset = offset  # for error columns relative to the full input

    def column(self) -> int:
        return self.offset + self.pos + 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str, expected: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise RingSyntaxError(f"expected {expected!r}", self.column(), (expected,))
        self.pos += len(literal)

    def nat(self, what: str = "number") -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise RingSyntaxError(f"expected {what}", self.column(), (what,))
        if self.pos - start > MAX_DIGITS:
            self.pos = start
            raise RingSyntaxError(f"{what} longer than {MAX_DIGITS} digits", self.column(), (what,))
        return int(self.text[start:self.pos])

    def exponent(self, what: str) -> int:
        col = self.column()
        value = self.nat(what)
        if value > MAX_EXPONENT:
            raise RingSyntaxError(f"{what} above {MAX_EXPONENT}", col, (what,))
        return value

    def at_end(self) -> bool:
        return self.pos >= len(self.text)


def _factor_prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with p prime and p**k == q, or None when q is not a prime power.

    q is a prime power when it is prime, or a perfect l-th power, for a
    prime l < log2(q), whose root is again a prime power.  No loop runs up
    to sqrt(q), so a large prime or semiprime q answers at once.
    """
    if q < 2:
        return None
    if is_prime(q):
        return q, 1
    for k in range(2, q.bit_length()):
        if is_prime(k):
            r = _kth_root(q, k)
            if r ** k == q:
                pk = _factor_prime_power(r)
                return (pk[0], pk[1] * k) if pk else None
    return None


def _kth_root(q: int, k: int) -> int:
    """floor(q ** (1/k)) for q >= 1, by Newton's iteration from just above
    a float estimate (the 2**-30 covers the estimate's rounding error)."""
    e = math.log2(q) / k + 2 ** -30
    whole = int(e)
    r = (int(2 ** (e - whole + 52)) << whole >> 52) + 1
    while True:
        s = ((k - 1) * r + q // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _parse_poly(cur: _Cursor, n: int) -> tuple[int, ...]:
    """Polynomial in x with integer coefficients; returns ascending coefficients."""
    coeffs: dict[int, int] = {}
    first = True
    while True:
        sign = 1
        if cur.peek() == "+":
            cur.pos += 1
        elif cur.peek() == "-":
            sign = -1
            cur.pos += 1
        elif not first:
            break
        first = False
        col = cur.column()
        coeff = None
        if cur.peek().isdigit():
            coeff = cur.nat()
        if cur.peek() == "x":
            cur.pos += 1
            power = 1
            if cur.peek() == "^":
                cur.pos += 1
                power = cur.exponent("exponent")
            c = coeff if coeff is not None else 1
        else:
            if coeff is None:
                raise RingSyntaxError("expected coefficient or 'x'", col, ("coefficient", "x"))
            power = 0
            c = coeff
        coeffs[power] = coeffs.get(power, 0) + sign * c
        if cur.peek() not in "+-":
            break
    if not coeffs:
        raise RingSyntaxError("empty polynomial", cur.column(), ("polynomial",))
    degree = max(coeffs)
    out = [coeffs.get(i, 0) % n for i in range(degree + 1)]
    return tuple(out)


def _parse_atom(text: str, offset: int) -> RingSpec:
    cur = _Cursor(text, offset)
    if text.startswith("Z/"):
        cur.pos = 2
        col = cur.column()
        n = cur.nat("modulus")
        if n < 2:
            raise RingSemanticError(f"Z/{n}: modulus must be >= 2 (column {col})")
        if cur.at_end():
            return Zn(n)
        cur.expect("[x]/(", "[x]/(")
        col = cur.column()
        coeffs = _parse_poly(cur, n)
        cur.expect(")", ")")
        if not cur.at_end():
            raise RingSyntaxError("trailing input after atom", cur.column(), ("end of atom",))
        try:
            return MonicQuotient(Zn(n), coeffs)
        except NonMonicModulus as exc:
            raise RingSemanticError(f"{exc} (column {col})") from exc
    if text.startswith("GF("):
        cur.pos = 3
        col = cur.column()
        q = cur.nat("prime power")
        cur.expect(")", ")")
        if not cur.at_end():
            raise RingSyntaxError("trailing input after atom", cur.column(), ("end of atom",))
        if q < 2:
            raise RingSemanticError(f"GF({q}): order must be a prime power >= 2 (column {col})")
        pk = _factor_prime_power(q)
        if pk is None:
            raise RingSemanticError(f"GF({q}): {q} is not a prime power (column {col})")
        return GF(*pk)
    for name, ctor in (("FamA", FamA), ("FamB", FamB), ("FamC", FamC), ("FamD", FamD)):
        if text.startswith(name + "("):
            cur.pos = len(name) + 1
            col = cur.column()
            p = cur.nat("prime")
            if not is_prime(p):
                raise RingSemanticError(f"{name}: {p} is not prime (column {col})")
            if name == "FamA":
                cur.expect(",", ",")
                acol = cur.column()
                alpha = cur.exponent("alpha")
                if alpha < 1:
                    raise RingSemanticError(f"FamA: alpha must be >= 1 (column {acol})")
                cur.expect(")", ")")
                if not cur.at_end():
                    raise RingSyntaxError("trailing input after atom", cur.column(), ("end of atom",))
                return FamA(p, alpha)
            cur.expect(")", ")")
            if not cur.at_end():
                raise RingSyntaxError("trailing input after atom", cur.column(), ("end of atom",))
            return ctor(p)
    raise RingSyntaxError(
        "expected a ring atom", offset + 1, ("Z/", "GF(", "FamA(", "FamB(", "FamC(", "FamD(")
    )


def _split_product(text: str) -> list[tuple[int, str]]:
    """Split on standalone ' x ' separators outside brackets; returns (offset, chunk)."""
    parts = []
    depth = 0
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif depth == 0 and ch == "x" and text[i - 1:i] == " " and text[i + 1:i + 2] == " ":
            parts.append((start, text[start:i - 1]))
            start = i + 2
            i += 2
            continue
        i += 1
    parts.append((start, text[start:]))
    return parts


def parse_ring_spec(text: str) -> RingSpec:
    """Parse a ring expression into a RingSpec."""
    if not isinstance(text, str):
        raise RingSyntaxError("input is not a string", 1, ("expression",))
    specs = []
    for offset, chunk in _split_product(text):
        stripped = chunk.strip()
        lead = len(chunk) - len(chunk.lstrip())
        if not stripped:
            raise RingSyntaxError("empty product factor", offset + lead + 1, ("ring atom",))
        try:
            specs.append(_parse_atom(stripped, offset + lead))
        except ZdgError:
            raise
        except Exception as exc:  # defensive: parser must never crash
            raise RingSyntaxError(f"unparseable atom: {exc}", offset + lead + 1, ("ring atom",)) from exc
    if len(specs) == 1:
        return specs[0]
    return Product(tuple(specs))


def _render_poly(coeffs: tuple[int, ...]) -> str:
    terms = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        if power == 0:
            body = str(c)
        elif power == 1:
            body = "x" if c == 1 else f"{c}x"
        else:
            body = f"x^{power}" if c == 1 else f"{c}x^{power}"
        terms.append(("+" if terms else "") + body)
    return "".join(terms) if terms else "0"


def render_ring_spec(spec: RingSpec) -> str:
    """Textual form that parses back to an equal RingSpec."""
    if isinstance(spec, Zn):
        return f"Z/{spec.n}"
    if isinstance(spec, GF):
        return f"GF({spec.p ** spec.k})"
    if isinstance(spec, MonicQuotient):
        return f"Z/{spec.base.n}[x]/({_render_poly(spec.modulus)})"
    if isinstance(spec, FamA):
        return f"FamA({spec.p},{spec.alpha})"
    if isinstance(spec, FamB):
        return f"FamB({spec.p})"
    if isinstance(spec, FamC):
        return f"FamC({spec.p})"
    if isinstance(spec, FamD):
        return f"FamD({spec.p})"
    if isinstance(spec, Product):
        return " x ".join(render_ring_spec(f) for f in spec.factors)
    raise TypeError(f"not a RingSpec: {spec!r}")
