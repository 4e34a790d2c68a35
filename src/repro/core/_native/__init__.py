"""Build, cache and load the compiled chain loop (``chain_loops.c``).

The library exports four functions, the keys of :data:`SIGNATURES`:
``run_chain``, the run loop of every kernel mode; ``flood``, the
breadth-first search behind the engine's start invariants;
``fill_tape``, which draws the next block of a
:class:`repro.rng.BatchedMoveDraws` or
:class:`repro.rng.BatchedActivationDraws` tape with numpy's own
algorithms, so the tape is the one numpy would have drawn; and
``draw_deferred``, which writes a deferred uniform lane (below).
``run_chain``, ``fill_tape`` and ``draw_deferred`` take the tape as a
:class:`Tape` struct, which the tape owns: ``run_chain`` reads proposals
from its cursor on and refills it one block at a time, so a ``run()`` of
the engine is one call into C; given a sample buffer it also writes the
edge delta after every ``stride`` proposals, so a traced run is one call
too.  ``fill_tape`` draws through the
generator's ``bitgen_t`` function pointers, or, for a
:class:`numpy.random.PCG64` whose state :func:`pcg64_layout_matches`
has read correctly, through its own copy of numpy's PCG64 step, kept in
registers for the whole fill.  On such a PCG64 tape ``run_chain``'s own
refills defer the uniform lane: they save the state the lane starts
from, jump the generator past it, and draw a uniform only when a
proposal reads it; ``draw_deferred`` draws the whole lane when Python
reads the tape, without touching the generator.

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

import numpy as np

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


#: Draw sources of a :class:`Tape`, in the order of the enum in ``chain_loops.c``.
BITGEN, PCG64 = 0, 1


class Tape(ctypes.Structure):
    """Mirror of ``tape_t`` in ``chain_loops.c``: a draw tape's generator,
    shape, lanes and position.  ``indices`` is NULL on the activation tape,
    ``uniforms2`` unless ``lanes == 2``.  While ``deferred`` is set the
    uniform lane is not written yet; ``lane_state`` and ``lane_inc`` (two
    64-bit words each, low first) are the PCG64 state and increment it
    starts from."""

    _fields_ = [
        ("bitgen", ctypes.c_void_p),
        ("source", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("block", ctypes.c_int64),
        ("lanes", ctypes.c_int64),
        ("indices", ctypes.c_void_p),
        ("directions", ctypes.c_void_p),
        ("uniforms", ctypes.c_void_p),
        ("uniforms2", ctypes.c_void_p),
        ("cursor", ctypes.c_int64),
        ("size", ctypes.c_int64),
        ("deferred", ctypes.c_int64),
        ("lane_state", ctypes.c_uint64 * 2),
        ("lane_inc", ctypes.c_uint64 * 2),
    ]


class _PCG64State(ctypes.Structure):
    """numpy's ``pcg64_state``, as ``bit_generator.ctypes.state_address``
    points to it: the 128-bit ``state`` and ``inc`` behind ``pcg_state``,
    then the buffered half-word."""

    _fields_ = [
        ("pcg_state", ctypes.c_void_p),
        ("has_uint32", ctypes.c_int),
        ("uinteger", ctypes.c_uint32),
    ]


def pcg64_layout_matches(bit_generator) -> bool:
    """Whether ``chain_loops.c`` may step ``bit_generator`` itself.

    True only for a :class:`numpy.random.PCG64` whose state, read through
    ``ctypes.state_address`` as two 128-bit integers of two native 64-bit
    words each (low word first, as ``__uint128_t`` lies on a
    little-endian machine), equals ``bit_generator.state``.  Any other
    bit generator, or a numpy built with another layout, draws through
    the ``bitgen_t`` function pointers instead.
    """
    if type(bit_generator) is not np.random.PCG64:
        return False
    numpy_state = _PCG64State.from_address(bit_generator.ctypes.state_address)
    words = (ctypes.c_uint64 * 4).from_address(numpy_state.pcg_state)
    read = {
        "state": words[0] | words[1] << 64,
        "inc": words[2] | words[3] << 64,
        "has_uint32": numpy_state.has_uint32,
        "uinteger": numpy_state.uinteger,
    }
    state = bit_generator.state
    return read == {**state["state"], "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}


_P = ctypes.c_void_p
_I = ctypes.c_int64

#: Argument types of each function; see the signatures in ``chain_loops.c``.
SIGNATURES = {
    "run_chain": (_P, _I, _I, _P, _P, _P, _P, ctypes.c_double, _P, _I, _I, _P),
    "flood": (_P, _I, _I, _I, _I, _P, _P),
    "fill_tape": (_P,),
    "draw_deferred": (_P,),
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
