"""Charged three-body systems: masses, couplings, presets and file parsing.

A system is three point masses m1, m2, m3 interacting through the pair
potential

    V = -a3/r12 - a2/r13 - a1/r23

so that coupling a_k belongs to the pair *not* containing body k.  Positive
couplings are attractive.  Gravity corresponds to a_k = G*m_i*m_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, TrihillError

# Pair indexing used throughout: pair p couples the two bodies other than
# body p, i.e. pair 1 = (2,3), pair 2 = (1,3), pair 3 = (1,2).
PAIRS = ((2, 3), (1, 3), (1, 2))


@dataclass(frozen=True)
class BodySystem:
    """Masses and pair couplings of a charged three-body system."""

    masses: tuple[float, float, float]
    alphas: tuple[float, float, float]

    def __post_init__(self):
        if len(self.masses) != 3 or len(self.alphas) != 3:
            raise ValueError("BodySystem needs exactly three masses and three couplings")
        if not all(math.isfinite(v) for v in (*self.masses, *self.alphas)):
            raise DomainError(
                f"masses and couplings must be finite, got {self.masses} and {self.alphas}"
            )
        if any(m <= 0 for m in self.masses):
            raise ValueError(f"masses must be strictly positive, got {self.masses}")
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))

    def pair_reduced_mass(self, i: int, j: int) -> float:
        """Reduced mass m_i*m_j/(m_i+m_j) of bodies i, j (1-based)."""
        mi, mj = self.masses[i - 1], self.masses[j - 1]
        return mi * mj / (mi + mj)

    def pair_coupling(self, i: int, j: int) -> float:
        """Coupling constant of the pair (i, j) (1-based)."""
        k = 6 - i - j
        return self.alphas[k - 1]

    def permuted(self, perm: tuple[int, int, int]) -> "BodySystem":
        """Relabel bodies: body i of the new system is body perm[i-1] of this one."""
        m = tuple(self.masses[p - 1] for p in perm)
        a = tuple(self.alphas[p - 1] for p in perm)
        return BodySystem(m, a)


@dataclass(frozen=True)
class JacobiFrame:
    """Reduced masses of the two nested two-body subsystems.

    mu1 belongs to the (1,3) pair, mu2 to body 2 against the (1,3) barycentre.
    """

    mu1: float
    mu2: float


def jacobi_frame(system: BodySystem) -> JacobiFrame:
    m1, m2, m3 = system.masses
    return JacobiFrame(
        mu1=m1 * m3 / (m1 + m3),
        mu2=m2 * (m1 + m3) / (m1 + m2 + m3),
    )


def gravitational(masses: tuple[float, float, float], G: float = 1.0) -> BodySystem:
    """System with purely gravitational couplings a_k = G*m_i*m_j."""
    m1, m2, m3 = masses
    return BodySystem(masses, (G * m2 * m3, G * m1 * m3, G * m1 * m2))


def infer_gravity_constant(system: BodySystem, rtol: float = 1e-12) -> float:
    """Return G if the couplings are exactly gravitational, else raise.

    Solves G from a1 and checks a2, a3 against G*m_i*m_j to ``rtol`` relative.
    """
    m1, m2, m3 = system.masses
    a1, a2, a3 = system.alphas
    if a1 <= 0 or a2 <= 0 or a3 <= 0:
        raise TrihillError("gravitational couplings must all be positive")
    G = a1 / (m2 * m3)
    for got, want in ((a2, G * m1 * m3), (a3, G * m1 * m2)):
        if abs(got - want) > rtol * max(abs(got), abs(want)):
            raise TrihillError("couplings are not of the gravitational form a_k = G*m_i*m_j")
    return G


PRESETS: dict[str, BodySystem] = {
    # Gravitational demo, G = 1.
    "gravity-demo": BodySystem((1.6, 1.2, 1.0), (1.2, 1.6, 1.92)),
    # Two electrons (bodies 1, 2) and a nucleus of charge +2 in atomic units.
    "helium": BodySystem((1.0, 1.0, 7289.56), (2.0, 2.0, -1.0)),
    # Two electrons and a positron, atomic units.
    "eep": BodySystem((1.0, 1.0, 1.0), (1.0, 1.0, -1.0)),
}


def preset(name: str) -> BodySystem:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None


def parse_system(text: str) -> BodySystem:
    """Parse the system file format.

    UTF-8 text, ``#`` starts a comment, tokens are whitespace separated::

        masses <m1> <m2> <m3>
        alphas <a1> <a2> <a3>
    """
    masses = alphas = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ValueError(f"line {lineno}: expected 'masses|alphas v1 v2 v3', got {raw!r}")
        key, values = fields[0].lower(), fields[1:]
        try:
            triple = tuple(float(v) for v in values)
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric value in {raw!r}") from None
        if key == "masses":
            masses = triple
        elif key == "alphas":
            alphas = triple
        else:
            raise ValueError(f"line {lineno}: unknown keyword {key!r}")
    if masses is None or alphas is None:
        raise ValueError("system file must define both 'masses' and 'alphas'")
    return BodySystem(masses, alphas)


def load_system(path) -> BodySystem:
    with open(path, encoding="utf-8") as fh:
        return parse_system(fh.read())
