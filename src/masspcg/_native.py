"""Build and load the compiled kernels of ``_stencils.c``: the Laplacian and
mass stencils, the CG residual update, and the x and p update fused into the
Laplacian.

The loaded library is one implementation of the kernel table of
``SIGNATURES``; ``_sweeps`` is the other, with the same names, arguments and
``bind``. ``operators`` imports this module on the first kernel call, never at
import, so a fresh ``import masspcg`` does not even parse it. The library is
built once per source, compiler, flags and platform, and cached as
``__pycache__/_stencils-<sha256>.so`` beside the source, where a build
deletes the libraries of earlier sources.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

# FMA contraction and -ffast-math reassociation would change bits, and
# -march=native would tie the cached library to one CPU. The source's KERNEL
# clones each kernel for AVX-512F and AVX2 instead, picked per CPU at load time.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

SOURCE = Path(__file__).with_name("_stencils.c")

#: What no compiler, a failed build, or a library that will not load or lacks
#: a symbol raise; ``operators`` then takes the numpy sweeps, silently.
LOAD_ERRORS = (OSError, subprocess.SubprocessError, AttributeError)


def compiler() -> list[str] | None:
    """Command of the C compiler: sysconfig's ``CC`` when on PATH, else ``cc``."""
    for command in (shlex.split(sysconfig.get_config_var("CC") or ""), ["cc"]):
        if command and shutil.which(command[0]):
            return command
    return None


def build(command: list[str], target: Path) -> Path:
    """Compile the source to a temporary name beside ``target``, then rename it.

    The rename is atomic, so processes that build at once each leave a whole
    library. Compiler output is discarded. Every other ``_stencils-*.so``
    there is then deleted; temporaries of builds still running stay.
    """
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run([*command, *CFLAGS, "-o", tmp, str(SOURCE)], check=True, timeout=300,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in target.parent.glob("_stencils-*.so"):
        if stale != target:
            with contextlib.suppress(OSError):
                stale.unlink()
    return target


class Vector(ctypes.c_void_p):
    """ctypes argument type of a vector: its data pointer as a ``c_void_p``
    (a plain int would pass as a 32-bit C int) that keeps the vector alive.
    ``bind`` makes one per vector, once per solve or operator call, and the
    kernels refuse a bare array. ``operators`` checks dtype, layout and length
    first: ndpointer's checks and conversion took about 5 us per vector per
    call on a 2-vCPU Xeon VM, more than a whole update of 1,024 values."""

    def __init__(self, v):
        super().__init__(v.ctypes.data)
        self.vector = v


#: The kernel table: argument types of every kernel, which ``_stencils.c``
#: exports as ``masspcg_<name>`` and ``_sweeps`` defines as ``<name>``.
_F64, _I64, _VEC = ctypes.c_double, ctypes.c_int64, Vector
SIGNATURES = {
    "laplacian": [_I64, _I64, _VEC, _VEC, _F64, _F64],
    "mass": [_I64, _I64, _VEC, _VEC, _F64, _F64],
    "r_update": [_I64, _VEC, _VEC, _F64],
    "xp_laplacian": [_I64, _I64, _VEC, _VEC, _VEC, _VEC, _F64, _F64, _F64, _F64],
}


def open_library(path: Path) -> ctypes.CDLL:
    """Load the library at ``path`` and declare its functions from
    ``SIGNATURES``, each as an attribute of the table's name."""
    lib = ctypes.CDLL(str(path))
    for name, argtypes in SIGNATURES.items():
        function = getattr(lib, f"masspcg_{name}")
        function.argtypes = argtypes
        function.restype = None
        setattr(lib, name, function)
    lib.bind = lambda *vectors: tuple(map(Vector, vectors))
    return lib


def load_library() -> ctypes.CDLL:
    """The cached library, built first when missing.

    When the cache directory cannot be written, the library is built into a
    temporary directory of this process instead. Raises OSError or a
    subprocess error on failure.
    """
    command = compiler()
    if command is None:
        raise FileNotFoundError("no C compiler found")
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(repr((command, CFLAGS, sysconfig.get_platform())).encode())
    target = SOURCE.parent / "__pycache__" / f"_stencils-{key.hexdigest()}.so"
    if not target.exists():
        try:
            target.parent.mkdir(exist_ok=True)
            build(command, target)
        except OSError:
            with tempfile.TemporaryDirectory(prefix="masspcg-", ignore_cleanup_errors=True) as private:
                return open_library(build(command, Path(private) / target.name))
    return open_library(target)

