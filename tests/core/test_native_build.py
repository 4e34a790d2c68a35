"""Building, caching and falling back from the compiled chain loops.

:mod:`repro.core._native` compiles ``chain_loops.c`` on the first
``FastCompressionChain`` construction and caches the build; without a
working compiler the engine — under either key, ``"fast"`` or
``"vector"`` — runs its Python loops after exactly one WARNING on the
``repro.core`` logger.  The build-must-load test fails rather than skips
when a compiler is on ``PATH``, so a broken build cannot leave CI
silently testing only the fallback.
"""

import logging
from importlib import resources

import pytest

from repro.core import ENGINES, _native
from repro.core.fast_chain import FastCompressionChain
from repro.lattice.shapes import line, random_connected


@pytest.fixture
def fresh_loader():
    """Forget the memoized build before and after the test."""
    _native.load_library.cache_clear()
    yield _native.load_library
    _native.load_library.cache_clear()


def records_of(caplog, level):
    return [
        record
        for record in caplog.records
        if record.name.startswith("repro.core") and record.levelno == level
    ]


def test_c_source_is_package_data():
    source = resources.files("repro.core._native").joinpath(_native.SOURCE_NAME)
    assert source.is_file()
    text = _native.source_bytes().decode()
    for loop in ("edge", "edge_site", "edge_color"):
        assert f"int64_t {loop}(" in text


def test_compiler_on_path_builds_and_loads(fresh_loader):
    if _native.find_compiler() is None:
        pytest.skip("no C compiler on PATH: the fallback tests cover this case")
    library = fresh_loader()
    assert library is not None, "a C compiler is on PATH but chain_loops.c did not build and load"
    chain = FastCompressionChain(line(10), lam=4.0, seed=0)
    assert chain._library is library


def test_build_is_cached_and_logged_once(fresh_loader, tmp_path, monkeypatch, caplog):
    if _native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with caplog.at_level(logging.DEBUG, logger="repro.core"):
        first = fresh_loader()
        second = fresh_loader()
    assert first is not None and second is first
    builds = list((tmp_path / "repro" / "native").glob(f"*/{_native.LIBRARY_NAME}"))
    assert len(builds) == 1
    debug = records_of(caplog, logging.DEBUG)
    assert len(debug) == 1 and str(builds[0]) in debug[0].getMessage()
    assert not records_of(caplog, logging.WARNING)
    # No partial files are left beside the build.
    assert [path.name for path in builds[0].parent.iterdir()] == [_native.LIBRARY_NAME]


def test_unwritable_cache_builds_in_a_private_temp_dir(fresh_loader, tmp_path, monkeypatch, caplog):
    if _native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    with caplog.at_level(logging.DEBUG, logger="repro.core"):
        library = fresh_loader()
    assert library is not None
    (debug,) = records_of(caplog, logging.DEBUG)
    built_at = debug.args[0]
    assert "repro-native-" in str(built_at)
    assert not built_at.parent.exists(), "the private build directory is removed after loading"


def test_without_a_compiler_vector_falls_back_bit_identically(fresh_loader, monkeypatch, caplog):
    """Both engine keys fall back after one WARNING, bit-identical to the
    compiled loops."""
    initial = random_connected(40, seed=2)
    compiled = FastCompressionChain(initial, lam=4.0, seed=9)
    fresh_loader.cache_clear()
    monkeypatch.setattr(_native, "find_compiler", lambda: None)
    with caplog.at_level(logging.DEBUG, logger="repro.core"):
        fallbacks = [ENGINES[key](initial, lam=4.0, seed=9) for key in ("fast", "vector")]
        ENGINES["vector"](line(5), lam=2.0, seed=1)
    assert [chain._library for chain in fallbacks] == [None, None]
    (warning,) = records_of(caplog, logging.WARNING)
    message = warning.getMessage()
    assert "no C compiler" in message
    assert "engine='fast'" in message and "'vector'" in message
    chains = [compiled, *fallbacks]
    for chunk in (1, 7, 1000, 33333):
        for chain in chains:
            chain.run(chunk)
    # A forced re-center, then more proposals on the re-centered grid.
    for chain in chains:
        chain._reallocate()
    for chunk in (5, 2048):
        for chain in chains:
            chain.run(chunk)
    for chain in fallbacks:
        assert chain.occupied == compiled.occupied
        assert chain.edge_count == compiled.edge_count
        assert chain.accepted_moves == compiled.accepted_moves
        assert chain.rejection_counts == compiled.rejection_counts
        assert chain.perimeter() == compiled.perimeter()
    step = compiled.step()
    assert [chain.step() for chain in fallbacks] == [step, step]
