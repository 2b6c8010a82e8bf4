import math

import numpy as np
import pytest

from colouredhopf.coefficients import (
    ParamPoint,
    SingularParameterError,
    as_colour,
    colour_norm,
    cpow,
    effective_q_squared,
    sample_params,
)


def test_cpow_principal_square_root():
    assert cpow(4, 0.5) == pytest.approx(2.0)


def test_cpow_zero_exponent_is_one():
    for q in (2.0, -3.0 + 1j, 0.001j, 17.5):
        assert cpow(q, 0) == pytest.approx(1.0, abs=1e-15)


def test_cpow_euler():
    # e**(i pi / 2) on the principal branch is exactly i
    assert abs(cpow(math.e, 0.5j * math.pi) - 1j) < 1e-15


def test_cpow_zero_base_rejected():
    with pytest.raises(ValueError):
        cpow(0, 0.5)


def test_cpow_additivity_fixed_branch():
    # exp(x L) exp(y L) = exp((x+y) L) holds exactly for one fixed Log
    rng = np.random.default_rng(3)
    for _ in range(200):
        b = complex(rng.normal(), rng.normal())
        if abs(b) < 1e-3:
            continue
        x = complex(rng.normal(), rng.normal())
        y = complex(rng.normal(), rng.normal())
        lhs = cpow(b, x) * cpow(b, y)
        rhs = cpow(b, x + y)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_colour_norm_identity_colour():
    for q in (2.0, 0.5 + 1.2j, -1.7):
        assert colour_norm(q, 1.0) == pytest.approx(1.0)


def test_colour_norm_example_value():
    # (2**4 - 1) / (2**2 - 1) = 5
    assert colour_norm(2.0, 2.0) == pytest.approx(math.sqrt(5.0))


def test_colour_norm_square_removes_branch():
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = complex(rng.uniform(0.5, 2) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
        if abs(q * q - 1) < 0.1:
            continue
        nu = complex(rng.normal(), rng.normal())
        if nu == 0:
            continue
        lhs = colour_norm(q, nu) ** 2 * (effective_q_squared(q) - 1.0)
        rhs = effective_q_squared(q, nu) - 1.0
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_colour_norm_singular_q_rejected():
    with pytest.raises(SingularParameterError):
        colour_norm(1.001, 2.0)


def test_param_point_invariants():
    with pytest.raises(ValueError):
        ParamPoint(0.0, 1.0)
    with pytest.raises(ValueError):
        ParamPoint(2.0, 0.0)
    with pytest.raises(SingularParameterError):
        ParamPoint(1.0 + 1e-4j, 1.0)


def test_colour_nonzero():
    with pytest.raises(ValueError):
        as_colour(0.0)


def test_sample_params_count_and_invariants():
    draws = sample_params(5, 100)
    assert len(draws) == 100
    for point, colours in draws:
        assert 0.5 <= abs(point.q) <= 2.0
        assert 0.5 <= abs(point.s) <= 2.0
        assert abs(point.q ** 2 - 1.0) >= 0.1
        assert len(colours) == 3
        for c in colours:
            assert 0.5 <= abs(c) <= 2.0
            # the colour-shifted copy stays away from the singularity too
            assert abs(effective_q_squared(point.q, c) - 1.0) >= 0.1


def test_sample_params_deterministic():
    a = sample_params(9, 20)
    b = sample_params(9, 20)
    assert [(pt.q, pt.s) for pt, _ in a] == [(pt.q, pt.s) for pt, _ in b]
    assert [cs for _, cs in a] == [cs for _, cs in b]


def test_sample_params_rejects_bad_count():
    with pytest.raises(ValueError):
        sample_params(0, 0)


def test_every_cache_in_the_package_is_bounded_and_follows_the_precision(tmp_path):
    """Every ``functools.lru_cache`` in the package has a finite ``maxsize``,
    and every one whose function takes arguments is a ``precision_cache``,
    which ``working_precision`` empties, so that none serves a double
    scalar inside the block.  A cache of a function without arguments holds
    its one value, into which no scalar enters (``cli.build_parser``).

    Every ``precision_cache`` keeps the one bound, and a request's working
    set stays well inside it: one verify draw, and the colour norms of one
    4x4x4 sweep, miss each cache at most a quarter of the bound times.  A
    working set that outgrows the bound fails here, instead of recomputing
    its scalars without a sign."""
    import importlib
    import inspect
    import pkgutil

    import colouredhopf
    from colouredhopf import coefficients
    from colouredhopf.cli import main, run_verification

    caches = {}
    for info in pkgutil.iter_modules(colouredhopf.__path__):
        module = importlib.import_module(f"colouredhopf.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value
    assert {"colour_group._pair_map", "coloured_hopf._antipode_scalars",
            "cli.build_parser"} <= set(caches)
    registered = coefficients._PRECISION_CACHES
    assert all(any(c is cache for cache in caches.values()) for c in registered)
    for name, cache in caches.items():
        assert cache.cache_parameters()["maxsize"] is not None, name
        if inspect.signature(cache).parameters:
            assert any(cache is c for c in registered), name

    bound = coefficients.PRECISION_CACHE_SIZE
    assert all(c.cache_parameters()["maxsize"] == bound for c in registered)

    def misses():
        return [c.cache_info().misses for c in registered]

    for cache in registered:
        cache.cache_clear()
    for seed in range(5):
        before = misses()
        run_verification(seed, 1)
        for cache, old, new in zip(registered, before, misses()):
            assert 0 < new - old <= bound // 4, (cache.__wrapped__.__name__, seed, new - old)

    norms = coefficients._colour_norm_cached
    before = norms.cache_info().misses
    assert main(["sweep", "--q", "2", "--s", "1.5", "--lambda", "1,2,0.5+0.5i,1.3-0.2i",
                 "--mu", "1,1.5,2i,0.7+0.1i", "--nu", "1.2,0.9-0.4i,1.1j,0.6",
                 "--output", str(tmp_path / "sweep.csv")]) == 0
    assert 0 < norms.cache_info().misses - before <= bound // 4
