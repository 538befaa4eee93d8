"""Charged three-body systems: masses, couplings, presets and file parsing.

A system is three point masses m1, m2, m3 interacting through the pair
potential

    V = -a3/r12 - a2/r13 - a1/r23

so that coupling a_k belongs to the pair *not* containing body k.  Positive
couplings are attractive.  Gravity corresponds to a_k = G*m_i*m_j.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DomainError, TrihillError, check_finite, check_index, check_positive, check_triple


def _normal(x: float) -> bool:
    """Whether the positive float x is normal: neither inf nor subnormal nor 0."""
    return sys.float_info.min <= x <= sys.float_info.max


def reduced_mass(a: float, b: float, total: float | None = None) -> float:
    """Reduced mass a b/(a + b) of two positive masses.

    ``total`` is a + b summed as the caller sums it (a sum of three masses
    rounds differently in another order).  Where the product a b is not a
    normal float (it overflows, underflows or is subnormal), the value comes
    from lo/(1 + lo/hi), which forms no product.
    """
    product = a * b
    if _normal(product):
        return product / (a + b if total is None else total)
    lo, hi = min(a, b), max(a, b)
    return lo / (1.0 + lo / hi)


class Pair(NamedTuple):
    """One row of a system's pair table: bodies i < j, their reduced mass
    and coupling, and the polar angle psi of their collision ray on the
    collinear circle with its cosine and sine."""

    i: int
    j: int
    mu: float
    alpha: float
    psi: float
    cos: float
    sin: float


@dataclass(frozen=True)
class BodySystem:
    """Masses and pair couplings of a charged three-body system.

    ``pairs`` is the pair table, built once with the system: rows (1,2),
    (1,3), (2,3), the order of every pair sum.
    """

    masses: tuple[float, float, float]
    alphas: tuple[float, float, float]
    pairs: tuple[Pair, Pair, Pair] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        masses = tuple(check_positive("masses", m) for m in check_triple("masses", self.masses))
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "alphas", check_triple("alphas", self.alphas))
        object.__setattr__(self, "pairs", _pair_table(self))
        for pair in self.pairs:
            if pair.mu == 0.0:
                raise DomainError(
                    f"reduced mass of pair ({pair.i},{pair.j}) rounds to 0; rescale the system"
                )

    def pair_coupling(self, i: int, j: int) -> float:
        """Coupling constant of the pair (i, j) (1-based)."""
        k = 6 - i - j
        return self.alphas[k - 1]

    def permuted(self, perm: tuple[int, int, int]) -> "BodySystem":
        """Relabel bodies: body i of the new system is body perm[i-1] of this one.

        A ``perm`` that is not a permutation of (1, 2, 3) raises DomainError.
        """
        perm = tuple(check_index("body index", p, 1, 3) for p in perm)
        if sorted(perm) != [1, 2, 3]:
            raise DomainError(f"perm must be a permutation of (1, 2, 3), got {perm}")
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
    return JacobiFrame(mu1=reduced_mass(m1, m3), mu2=reduced_mass(m2, m1 + m3, m1 + m2 + m3))


def _pair_table(system: BodySystem) -> tuple[Pair, Pair, Pair]:
    """The pair table: the one place that derives a pair's reduced mass,
    collision angle and its cosine and sine (see ``coords.pair_geometry``),
    which ``coords._pair_term`` turns into pair distances and Vt terms.

    In (-pi, pi], psi12 = 2 atan2(sqrt(mu1 mu2), m1),
    psi23 = -2 atan2(sqrt(mu1 mu2), m3) and the (1,3) collision is at pi.
    Where mu1 mu2 is not a normal float, its root is sqrt(mu1) sqrt(mu2).
    """
    fr = jacobi_frame(system)
    m1, _, m3 = system.masses
    product = fr.mu1 * fr.mu2
    root = math.sqrt(product) if _normal(product) else math.sqrt(fr.mu1) * math.sqrt(fr.mu2)
    rows = []
    for i, j, psi in (
        (1, 2, 2.0 * math.atan2(root, m1)),
        (1, 3, math.pi),
        (2, 3, -2.0 * math.atan2(root, m3)),
    ):
        mu = reduced_mass(system.masses[i - 1], system.masses[j - 1])
        rows.append(Pair(i, j, mu, system.pair_coupling(i, j), psi, math.cos(psi), math.sin(psi)))
    return tuple(rows)


def gravitational(masses: tuple[float, float, float], G: float = 1.0) -> BodySystem:
    """System with purely gravitational couplings a_k = G*m_i*m_j.  Masses
    that are not three finite values, or a G that is not a finite real
    number, raise DomainError before the products are formed."""
    m1, m2, m3 = masses = check_triple("masses", masses)
    G = check_finite("G", G)
    return BodySystem(masses, (G * m2 * m3, G * m1 * m3, G * m1 * m2))


def infer_gravity_constant(system: BodySystem) -> float:
    """Return G if the couplings are exactly gravitational, else raise.

    Solves G from a1 and checks a2, a3 against G*m_i*m_j to 1e-12 relative.
    A G or G*m_i*m_j that overflows fails the check: no tolerance compares
    with infinity.  An m2*m3 that underflows to zero leaves no G to solve.
    """
    m1, m2, m3 = system.masses
    a1, a2, a3 = system.alphas
    if a1 <= 0 or a2 <= 0 or a3 <= 0:
        raise TrihillError("gravitational couplings must all be positive")
    if m2 * m3 == 0.0:
        raise TrihillError("m2*m3 underflows to zero; no G solves a1 = G*m2*m3")
    G = a1 / (m2 * m3)
    for got, want in ((a2, G * m1 * m3), (a3, G * m1 * m2)):
        if not math.isfinite(want) or abs(got - want) > 1e-12 * max(abs(got), abs(want)):
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

    UTF-8 text, ``#`` starts a comment, tokens are whitespace separated,
    and each of the two lines appears once::

        masses <m1> <m2> <m3>
        alphas <a1> <a2> <a3>
    """
    triples = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise DomainError(f"line {lineno}: expected 'masses|alphas v1 v2 v3', got {raw!r}")
        key, values = fields[0].lower(), fields[1:]
        try:
            triple = tuple(float(v) for v in values)
        except ValueError:
            raise DomainError(f"line {lineno}: non-numeric value in {raw!r}") from None
        if key not in ("masses", "alphas"):
            raise DomainError(f"line {lineno}: unknown keyword {key!r}")
        if key in triples:
            raise DomainError(f"line {lineno}: second {key!r} line, got {raw!r}")
        triples[key] = triple
    if len(triples) < 2:
        raise DomainError("system file must define both 'masses' and 'alphas'")
    return BodySystem(triples["masses"], triples["alphas"])


def load_system(path) -> BodySystem:
    with open(path, encoding="utf-8") as fh:
        return parse_system(fh.read())
