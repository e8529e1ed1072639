"""Exception types shared across the package."""


class ZdgError(Exception):
    """Base class for all zdgraph errors."""


class CompositePrimeError(ZdgError):
    """A parameter declared prime is composite."""


class SizeCapExceeded(ZdgError):
    """A ring or graph would exceed a configured cap on its elements or its
    annihilator classes."""

    @classmethod
    def over(cls, what: str, log10_size: float, cap: int) -> "SizeCapExceeded":
        """States the size by its order of magnitude, so a size far above
        the cap need never be computed or formatted; ``what`` is shortened."""
        if len(what) > 60:
            what = what[:40] + "..." + what[-17:]
        return cls(f"{what} has more than the cap of {cap} elements (about 10^{round(log10_size)})")


class NonMonicModulus(ZdgError):
    """Quotient modulus is not monic of degree >= 1."""


class WrongRingKind(ZdgError):
    """Operation requires a different ring family (e.g. Z/n only)."""


class OracleCapExceeded(ZdgError):
    """Graph too large for the exact automorphism-orbit oracle."""


class NotEquitable(ZdgError):
    """Partition is not equitable for the graph.

    Carries the offending (vertex, block_label) pair.
    """

    def __init__(self, vertex, block_label, message=None):
        self.vertex = vertex
        self.block_label = block_label
        super().__init__(message or f"vertex {vertex} breaks equitability against block {block_label}")


class MixedBlock(ZdgError):
    """A partition block induces neither a clique nor an independent set."""

    def __init__(self, block_label, message=None):
        self.block_label = block_label
        super().__init__(message or f"block {block_label} is neither a clique nor independent")


class NotThresholdError(ZdgError):
    """A creation sequence was requested for a non-threshold graph."""


class MalformedCode(ZdgError):
    """Creation-sequence code is empty, non-binary, or starts with 1."""


class RingSyntaxError(ZdgError):
    """Ring expression failed to parse.

    ``position`` is a 1-based column; ``expected`` lists the token kinds
    that would have been accepted there.
    """

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(expected)
        super().__init__(f"{message} (column {position})")


class RingSemanticError(ZdgError):
    """Ring expression parsed but denotes an invalid ring."""


class UsageError(ZdgError):
    """Bad command-line invocation."""
