"""Fixed-width integers with Java wrap-around semantics.

The paper's random-walk scenario (Section 4.2) hinges on Java ``short``
arithmetic: counters declared as 16-bit shorts silently wrap past 32767 and
become negative, so a vertex sends a negative number of walkers. Python
integers never overflow, so to reproduce the bug — and to let Graft catch
it with a message-value constraint — the algorithm's counters use these
wrapping integer types.

``Short16``, ``Int32`` and ``Long64`` behave like Java's ``short``,
``int`` and ``long``: two's-complement wrap-around on ``+ - *``,
value-based equality and ordering (including against plain ints), and
round-tripping through the trace codec.
"""

from repro.common.serialization import register_value_type


def _wrap(value, bits):
    """Two's-complement wrap of ``value`` into a signed ``bits``-bit range."""
    mask = (1 << bits) - 1
    value &= mask
    sign_bit = 1 << (bits - 1)
    return value - (1 << bits) if value & sign_bit else value


class _FixedWidthInt:
    """Common behaviour for the wrapping integer types."""

    __slots__ = ("value",)
    BITS = None

    def __init__(self, value=0):
        raw = value.value if isinstance(value, _FixedWidthInt) else int(value)
        object.__setattr__(self, "value", _wrap(raw, self.BITS))

    @classmethod
    def max_value(cls):
        """Largest representable value (e.g. 32767 for :class:`Short16`)."""
        return (1 << (cls.BITS - 1)) - 1

    @classmethod
    def min_value(cls):
        return -(1 << (cls.BITS - 1))

    def _coerce(self, other):
        if isinstance(other, _FixedWidthInt):
            return other.value
        if isinstance(other, int):
            return other
        return NotImplemented

    def __add__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return type(self)(self.value + raw)

    __radd__ = __add__

    def __sub__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return type(self)(self.value - raw)

    def __rsub__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return type(self)(raw - self.value)

    def __mul__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return type(self)(self.value * raw)

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(-self.value)

    def __eq__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return self.value == raw

    def __lt__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return self.value < raw

    def __le__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return self.value <= raw

    def __gt__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return self.value > raw

    def __ge__(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        return self.value >= raw

    def __hash__(self):
        return hash(self.value)

    def __int__(self):
        return self.value

    def __index__(self):
        return self.value

    def __bool__(self):
        return bool(self.value)

    def __repr__(self):
        return f"{type(self).__name__}({self.value})"

    # Codec hooks: encode as a single-field payload.
    def to_payload(self):
        return {"value": self.value}

    @classmethod
    def from_payload(cls, payload):
        return cls(payload["value"])


@register_value_type
class Short16(_FixedWidthInt):
    """Java ``short``: 16-bit signed, wraps at 32767.

    >>> Short16(32767) + 1
    Short16(-32768)
    """

    __slots__ = ()
    BITS = 16


@register_value_type
class Int32(_FixedWidthInt):
    """Java ``int``: 32-bit signed."""

    __slots__ = ()
    BITS = 32


@register_value_type
class Long64(_FixedWidthInt):
    """Java ``long``: 64-bit signed."""

    __slots__ = ()
    BITS = 64
