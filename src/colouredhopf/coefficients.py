"""Complex scalar arithmetic, colour normalisation and parameter sampling.

Every fractional power taken anywhere in the package is routed through
:func:`cpow`, so a single principal-branch convention governs all modules,
and every scalar coercion through :func:`as_scalar`.  Both read the numeric
format from one :class:`Precision`, the module's ``precision``: ``DOUBLE``,
Python ``complex``, by default, and ``mpmath`` scalars at a raised
precision inside :func:`working_precision`, which the test suite uses to
tell rounding from defects.  ``precision`` is the one module-level name
rebound at run time.  The deformation parameters live on the immutable
``ParamPoint``.  A colour is a plain nonzero complex number, an element of
GL(1, C); :func:`as_colour` is the one place that coerces and validates it.
"""

from __future__ import annotations

import cmath
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

#: default lower bound on |q**2 - 1|; the defining anticommutator divides by it
DEFAULT_GUARD = 0.1

#: hard floor on |q**(2c) - 1| below which a copy's divisions are refused
SINGULAR_FLOOR = 1e-9

#: draws allowed per sampled value before the guard is declared unsatisfiable
MAX_REJECTIONS = 10_000


class SingularParameterError(ValueError):
    """A deformation parameter sits too close to the q**2 == 1 singularity."""


class Precision(NamedTuple):
    """The numeric format of the symbolic layer's scalars.

    ``scalar`` coerces a number to the format, ``exp`` and ``log`` are its
    exponential and principal logarithm, and coefficients of modulus at or
    below ``prune_tol`` are dropped from element maps.
    """

    scalar: Callable
    exp: Callable
    log: Callable
    prune_tol: float


#: Python ``complex``; its prune threshold is about 45 ulp
DOUBLE = Precision(complex, cmath.exp, cmath.log, 1e-14)

#: the working precision, rebound only by ``working_precision``
precision = DOUBLE

#: caches of scalars computed at the working precision, emptied when it changes
_PRECISION_CACHES: list = []

#: entries each ``precision_cache`` keeps.  A request's working set is far
#: smaller: at most 10 keys per cache in one verify draw, 32 over the four
#: contexts a deep probe cycles through, and 12 colour norms in a 4x4x4
#: sweep.  Draws and sweeps bring fresh colours, so an older entry is never
#: read again and a larger bound would only hold dead scalars.
PRECISION_CACHE_SIZE = 128


def precision_cache(fn):
    """``lru_cache`` of ``PRECISION_CACHE_SIZE`` entries for a function whose
    results depend on the working precision."""
    cached = lru_cache(maxsize=PRECISION_CACHE_SIZE)(fn)
    _PRECISION_CACHES.append(cached)
    return cached


def as_scalar(value) -> complex:
    """Coerce a number to the scalar type of the working precision."""
    return precision.scalar(value)


@contextmanager
def working_precision(dps: int):
    """Run the block with ``mpmath`` scalars at ``dps`` significant digits.

    Inside ``mpmath.workdps(dps)``, rebinds ``precision`` to ``mpmath.mpc``
    with mpmath's exp and log and a prune threshold of 10**(2 - dps), and
    empties every ``precision_cache`` on entry and on exit, so that no
    cache serves a scalar of the other precision.  On exit, also by an
    exception, the precision and ``mpmath.mp.dps`` are the ones before the
    block.  Exponents of monomials stay floats: the symbolic layer never
    evaluates them.  The matrix layer stays on numpy and is not covered.

    Coefficients a caller built before the block stay doubles:
    ``pbw_algebra._mul_terms`` multiplies two of them (``c1 * c2``) in
    double precision.  A caller who wants the product at ``dps`` digits
    lifts its inputs first with ``x.scaled(1.0)``, as
    ``tests/test_working_precision.py`` does.
    """
    global precision
    import mpmath

    outer = precision
    with mpmath.workdps(dps):
        precision = Precision(mpmath.mpc, mpmath.exp, mpmath.log, 10.0 ** (2 - dps))
        for cache in _PRECISION_CACHES:
            cache.cache_clear()
        try:
            yield
        finally:
            precision = outer
            for cache in _PRECISION_CACHES:
                cache.cache_clear()


def cpow(base: complex, exponent: complex) -> complex:
    """Principal-branch complex power exp(exponent * Log(base)).

    Log is the principal logarithm (imaginary part in (-pi, pi]).  A zero
    base is rejected: the colour and deformation parameters are drawn from
    the punctured plane, so a vanishing base always signals a usage error.
    """
    scalar, exp, log, _ = precision
    b = scalar(base)
    if b == 0:
        raise ValueError("cpow: base must be nonzero")
    return exp(scalar(exponent) * log(b))


def effective_q_squared(q: complex, colour: complex = 1.0) -> complex:
    """The square q**(2c) of the deformation parameter of the copy with
    colour ``c``, under one global branch choice."""
    return cpow(q, 2.0 * precision.scalar(colour))


@precision_cache
def _colour_norm_cached(q: complex, nu: complex, guard: float) -> complex:
    denom = effective_q_squared(q) - 1.0
    if abs(denom) < guard:
        raise SingularParameterError(
            f"colour_norm: |q**2 - 1| = {abs(denom):.3g} below guard {guard}"
        )
    return cpow((effective_q_squared(q, nu) - 1.0) / denom, 0.5)


def colour_norm(q: complex, nu: complex, guard: float = DEFAULT_GUARD) -> complex:
    """Normalisation ((q**(2 nu) - 1) / (q**2 - 1))**(1/2), principal branch.

    This is the factor by which the odd generators rescale under the colour
    map with parameter ``nu``.  Raises :class:`SingularParameterError` when
    |q**2 - 1| is below ``guard``; callers serving a ``ParamPoint`` pass its
    guard.
    """
    return _colour_norm_cached(precision.scalar(q), as_colour(nu), guard)


@dataclass(frozen=True)
class ParamPoint:
    """A point (q, s) in deformation-parameter space.

    Both parameters are nonzero complex numbers and q must keep its distance
    from the q**2 == 1 singularity (the defining relations divide by
    q**2 - 1).  The guard is carried along so every colour normalisation
    taken at this point is validated against the same threshold.  Points
    compare and hash by (q, s); the hash is taken once, on construction,
    since every cache keyed by a point or a copy hashes it again.
    """

    q: complex
    s: complex
    guard: float = field(default=DEFAULT_GUARD, compare=False, repr=False)

    def __post_init__(self):
        q = precision.scalar(self.q)
        s = precision.scalar(self.s)
        if q == 0 or s == 0:
            raise ValueError("ParamPoint: q and s must be nonzero")
        if abs(q * q - 1.0) < self.guard:
            raise SingularParameterError(
                f"ParamPoint: |q**2 - 1| = {abs(q * q - 1.0):.3g} below guard {self.guard}"
            )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "_hash", hash((q, s)))

    def __hash__(self):
        return self._hash


def as_colour(nu: complex) -> complex:
    """Coerce a colour argument to a validated nonzero complex number."""
    v = precision.scalar(nu)
    if v == 0:
        raise ValueError("colour value must be nonzero")
    return v


def _draw_unit_annulus(rng: np.random.Generator) -> complex:
    """A point with modulus uniform in [0.5, 2] and a uniform angle."""
    r = rng.uniform(0.5, 2.0)
    phi = rng.uniform(-np.pi, np.pi)
    return complex(r * np.cos(phi), r * np.sin(phi))


def draw_colours(
    rng: np.random.Generator,
    q: complex,
    count: int,
    guard: float = DEFAULT_GUARD,
) -> tuple[complex, ...]:
    """Draw admissible colours: the shifted copy q**(2c) must avoid 1.

    Operations inside the copy with colour ``c`` divide by q**(2c) - 1, so
    a colour is redrawn until that quotient is well conditioned.  Raises
    :class:`SingularParameterError` when ``MAX_REJECTIONS`` draws in a row
    all fail the guard.
    """
    return tuple(
        _draw_admissible(
            rng, lambda c: abs(effective_q_squared(q, c) - 1.0) >= guard,
            f"colour with |q**(2c) - 1| >= {guard}")
        for _ in range(count)
    )


def _draw_admissible(rng: np.random.Generator, admissible, what: str) -> complex:
    """Draw from the annulus until ``admissible`` accepts, a bounded number of times."""
    for _ in range(MAX_REJECTIONS):
        value = _draw_unit_annulus(rng)
        if admissible(value):
            return value
    raise SingularParameterError(f"no admissible {what} in {MAX_REJECTIONS} draws")


def sample_params(
    seed: int,
    count: int,
    guard: float = DEFAULT_GUARD,
    colours_per_draw: int = 3,
) -> list[tuple[ParamPoint, tuple[complex, ...]]]:
    """Deterministic admissible draws of (q, s) points and colour tuples.

    Moduli of q, s and of the colours are uniform in [0.5, 2] with uniform
    angles.  Any q violating |q**2 - 1| >= guard is redrawn, as is any
    colour whose shifted copy violates the same bound.  Equal seeds yield
    identical sequences.  A guard that no draw can meet raises
    :class:`SingularParameterError`.
    """
    return list(iter_params(seed, count, guard, colours_per_draw))


def iter_params(
    seed: int,
    count: int,
    guard: float = DEFAULT_GUARD,
    colours_per_draw: int = 3,
) -> Iterator[tuple[ParamPoint, tuple[complex, ...]]]:
    """The draws of :func:`sample_params`, one at a time, so that a caller
    holds one draw instead of all ``count``."""
    if count < 1:
        raise ValueError("sample_params: count must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(count):
        q = _draw_admissible(rng, lambda z: abs(z * z - 1.0) >= guard,
                             f"q with |q**2 - 1| >= {guard}")
        s = _draw_unit_annulus(rng)
        yield ParamPoint(q, s, guard), draw_colours(rng, q, colours_per_draw, guard)
