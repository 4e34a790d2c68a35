"""Build, cache and load the compiled chain loop (``chain_loops.c``).

The library exports three functions, the keys of :data:`SIGNATURES`:
``run_chain``, the run loop of every kernel mode; ``flood``, the
breadth-first search behind the engine's start invariants; and
``fill_tape``, which draws the blocks of a :class:`repro.rng.BatchedMoveDraws`
or :class:`repro.rng.BatchedActivationDraws` tape through the generator's
``bitgen_t`` with numpy's own algorithms, so the tape is the one numpy
would have drawn.

:func:`load_library` compiles ``chain_loops.c`` with the system C
compiler on first use, caches the shared object under
``$XDG_CACHE_HOME/repro/native/<key>/`` (``~/.cache`` when unset), keyed
by the SHA-256 of the source, the compiler path and the flags, and loads
it with :mod:`ctypes`.  Nothing is compiled at ``import repro``:
:class:`~repro.core.fast_chain.FastCompressionChain` calls
:func:`load_library` when it is constructed.

A build is written under a temporary name and moved into place with
``os.replace``, so concurrent processes never load a half-written file.
When the cache directory is not writable the build goes to a fresh
``tempfile.mkdtemp()`` directory instead, which is removed once the
library is loaded.  When no compiler is found or the build fails,
:func:`load_library` logs one WARNING and returns ``None``; the engine
then runs its Python loop, and the tapes draw through numpy, with
identical results.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from importlib import resources
from pathlib import Path
from typing import Optional

logger = logging.getLogger(__name__)

SOURCE_NAME = "chain_loops.c"
LIBRARY_NAME = "chain_loops.so"

#: Flags of the cached build.
CFLAGS = ("-O3", "-shared", "-fPIC")

#: Compilers tried, in order, on ``PATH``.
COMPILERS = ("cc", "gcc", "clang")

#: What the fallback WARNING says happens next.
FALLBACK_NOTE = (
    "engine='fast' and engine='vector' run the Python loop and the draw "
    "tapes are filled by numpy (same results, ~5-20x slower)"
)


class Grid(ctypes.Structure):
    """Mirror of ``grid_t`` in ``chain_loops.c``: the window and move tables."""

    _fields_ = [
        ("pos", ctypes.c_void_p),
        ("cells", ctypes.c_void_p),
        ("direction_offsets", ctypes.c_void_p),
        ("ring_offsets", ctypes.c_void_p),
        ("width", ctypes.c_int64),
        ("height", ctypes.c_int64),
        ("guard", ctypes.c_int64),
        ("nb_before", ctypes.c_void_p),
        ("nb_after", ctypes.c_void_p),
        ("property_ok", ctypes.c_void_p),
    ]


_P = ctypes.c_void_p
_I = ctypes.c_int64

#: Argument types of each function; see the signatures in ``chain_loops.c``.
SIGNATURES = {
    "run_chain": (_I, _I, _P, _P, _P, _P, _P, _P, _P, _P, ctypes.c_double, _P),
    "flood": (_P, _I, _I, _I, _I, _P, _P),
    "fill_tape": (_P, _I, _I, _I, _I, _P, _P, _P, _P),
}


def source_bytes() -> bytes:
    """The C source, read through :mod:`importlib.resources`."""
    return resources.files(__package__).joinpath(SOURCE_NAME).read_bytes()


def find_compiler() -> Optional[str]:
    """The first C compiler of :data:`COMPILERS` on ``PATH``, or ``None``."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def cache_root() -> Path:
    """``$XDG_CACHE_HOME/repro/native``, with ``~/.cache`` as the default."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro" / "native"


def build(compiler: str, directory: Path) -> Path:
    """Compile the source into ``directory`` (atomically) and return the path."""
    target = directory / LIBRARY_NAME
    if target.exists():
        return target
    directory.mkdir(parents=True, exist_ok=True)
    handle, partial = tempfile.mkstemp(dir=directory, prefix=LIBRARY_NAME, suffix=".tmp")
    os.close(handle)
    try:
        subprocess.run(
            [compiler, *CFLAGS, "-x", "c", "-o", partial, "-"],
            input=source_bytes(),
            check=True,
            capture_output=True,
        )
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


def open_library(path) -> ctypes.CDLL:
    """Load a build of ``chain_loops.c`` and declare its functions' signatures."""
    library = ctypes.CDLL(str(path))
    for name, argtypes in SIGNATURES.items():
        function = getattr(library, name)
        function.argtypes = argtypes
        function.restype = ctypes.c_int64
    return library


@functools.lru_cache(maxsize=None)
def load_library() -> Optional[ctypes.CDLL]:
    """The compiled library, built on first call; ``None`` if it cannot be."""
    compiler = find_compiler()
    if compiler is None:
        logger.warning(
            "no C compiler (%s) on PATH: %s", ", ".join(COMPILERS), FALLBACK_NOTE
        )
        return None
    key = hashlib.sha256()
    for part in (source_bytes(), os.path.realpath(compiler).encode(), " ".join(CFLAGS).encode()):
        key.update(part)
        key.update(b"\0")
    private_dir = None
    try:
        try:
            path = build(compiler, cache_root() / key.hexdigest())
        except OSError:
            # Unwritable cache: build somewhere private, never a shared path.
            private_dir = tempfile.mkdtemp(prefix="repro-native-")
            path = build(compiler, Path(private_dir))
        library = open_library(path)
    except (OSError, subprocess.CalledProcessError) as error:
        detail = getattr(error, "stderr", None) or b""
        logger.warning(
            "building %s with %s failed (%s%s): %s",
            SOURCE_NAME, compiler, error,
            f": {detail.decode(errors='replace').strip()}" if detail else "",
            FALLBACK_NOTE,
        )
        return None
    finally:
        if private_dir is not None:
            shutil.rmtree(private_dir, ignore_errors=True)
    logger.debug("loaded compiled chain loops from %s", path)
    return library
