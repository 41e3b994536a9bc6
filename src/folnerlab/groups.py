"""Discrete group presentations backing the ``group:<name>`` fusion rings.

Two families cover every provider and tower target we need:

* products of cyclic factors (modulus 0 meaning an infinite Z factor),
  e.g. Z, Z^2, Z/6, Z x Z/2, (Z/m) x Z/2;
* the discrete Heisenberg group H3(Z) in normal form (a, b, c), optionally
  reduced mod m, with (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b').

Elements are kept in canonical normal form: a plain int for a single cyclic
factor, a tuple of ints otherwise. ``normalize`` is the one checked entry: it
type-checks a label (ints exactly, so no bool) and reduces it. Everything
else, the group law ``_mul``/``_inv`` and the reduction ``_reduce``, trusts
its arguments to have the group's label shape and validates nothing.
"""

from __future__ import annotations

from operator import add, neg


class CyclicProductGroup:
    """Direct product of cyclic groups; ``moduli[k] == 0`` means a Z factor."""

    def __init__(self, moduli: tuple[int, ...]):
        if not moduli or any(m < 0 or m == 1 for m in moduli):
            raise ValueError(f"bad moduli {moduli!r}: each must be 0 or >= 2")
        self.moduli = tuple(moduli)
        self.scalar_labels = len(moduli) == 1
        self._free = not any(moduli)

    @property
    def name(self) -> str:
        parts = ["Z" if m == 0 else f"Z/{m}" for m in self.moduli]
        if len(parts) > 1 and all(m == 0 for m in self.moduli):
            return f"Z^{len(parts)}"
        return "x".join(parts)

    def _out(self, t):
        return t[0] if self.scalar_labels else t

    def normalize(self, g):
        if self.scalar_labels:
            if type(g) is not int:
                raise ValueError(f"label {g!r} is not an integer")
            return self._reduce(g)
        if not (isinstance(g, (tuple, list)) and len(g) == len(self.moduli)
                and all(type(x) is int for x in g)):
            raise ValueError(f"label {g!r} does not match {self.name}")
        return self._reduce(tuple(g))

    def identity(self):
        return self._out((0,) * len(self.moduli))

    # trusted surface, nothing is validated: _reduce takes any label of this
    # shape, the group law labels in normal form

    def _reduce(self, g):
        """The normal form of g, reduced mod the moduli."""
        if self._free:
            return g
        if self.scalar_labels:
            return g % self.moduli[0]
        return tuple(x % m if m else x for x, m in zip(g, self.moduli))

    def _mul(self, g, h):
        if self.scalar_labels:
            m = self.moduli[0]
            return (g + h) % m if m else g + h
        if self._free:
            return tuple(map(add, g, h))
        return tuple((x + y) % m if m else x + y for x, y, m in zip(g, h, self.moduli))

    def _inv(self, g):
        if self.scalar_labels:
            m = self.moduli[0]
            return (-g) % m if m else -g
        if self._free:
            return tuple(map(neg, g))
        return tuple((-x) % m if m else -x for x, m in zip(g, self.moduli))

    @property
    def is_finite(self) -> bool:
        return all(self.moduli)

    def elements(self):
        if not self.is_finite:
            raise ValueError(f"{self.name} is infinite")
        out = [()]
        for m in self.moduli:
            out = [t + (x,) for t in out for x in range(m)]
        return [self._out(t) for t in out]


class HeisenbergGroup:
    """H3 over Z (modulus 0) or over Z/m; normal form (a, b, c)."""

    scalar_labels = False

    def __init__(self, modulus: int = 0):
        if modulus < 0 or modulus == 1:
            raise ValueError("modulus must be 0 or >= 2")
        self.modulus = modulus

    @property
    def name(self) -> str:
        return "heisenberg" if not self.modulus else f"heisenberg/{self.modulus}"

    def normalize(self, g):
        if not (isinstance(g, (tuple, list)) and len(g) == 3
                and all(type(x) is int for x in g)):
            raise ValueError(f"label {g!r} is not a Heisenberg triple")
        return self._reduce(tuple(g))

    def identity(self):
        return (0, 0, 0)

    # trusted surface, as for CyclicProductGroup

    def _reduce(self, t):
        m = self.modulus
        return tuple(x % m for x in t) if m else t

    def _mul(self, g, h):
        a, b, c = g
        d, e, f = h
        return self._reduce((a + d, b + e, c + f + a * e))

    def _inv(self, g):
        a, b, c = g
        return self._reduce((-a, -b, a * b - c))

    @property
    def is_finite(self) -> bool:
        return bool(self.modulus)

    def elements(self):
        if not self.modulus:
            raise ValueError("heisenberg over Z is infinite")
        m = self.modulus
        return [(a, b, c) for a in range(m) for b in range(m) for c in range(m)]


def parse_group_name(name: str):
    """Build the group object for the <name> part of a ``group:`` ring tag."""
    if name.startswith("heisenberg"):
        rest = name[len("heisenberg"):]
        if not rest:
            return HeisenbergGroup(0)
        if rest.startswith("/") and rest[1:].isdigit():
            return HeisenbergGroup(int(rest[1:]))
        raise ValueError(f"bad heisenberg tag {name!r}")
    if name.startswith("Z^"):
        d = name[2:]
        if not d.isdigit() or int(d) < 1:
            raise ValueError(f"bad power in group tag {name!r}")
        return CyclicProductGroup((0,) * int(d))
    moduli = []
    for part in name.split("x"):
        if part == "Z":
            moduli.append(0)
        elif part.startswith("Z/") and part[2:].isdigit():
            moduli.append(int(part[2:]))
        else:
            raise ValueError(f"bad factor {part!r} in group tag {name!r}")
    return CyclicProductGroup(tuple(moduli))
