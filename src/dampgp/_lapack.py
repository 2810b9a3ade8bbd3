"""The four LAPACK routines dampgp calls, bound from SciPy's extension module.

``dpotrf`` and ``dpotrs`` (``gp_core``), and ``dsygvd`` and ``dsyevd`` with
its workspace query ``dsyevd_lwork`` (``passivity``), live in
``scipy/linalg/_flapack``, the extension ``scipy.linalg.lapack`` exports
them from.  Importing the ``scipy.linalg`` package costs about 0.3 s of a
cold start, most of it in SciPy's array-API shim, so ``load_flapack`` loads
the extension by file path under its own name instead.  The routines are the
very function objects ``scipy.linalg.lapack`` exports.
"""

from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from pathlib import Path

import scipy  # cheap; prepares the bundled OpenBLAS on some platforms

FLAPACK = "scipy.linalg._flapack"


def load_flapack(folder):
    """The module ``scipy.linalg._flapack``: the one in ``sys.modules`` if
    there is one, else the extension in ``folder``, loaded under that name
    and registered in ``sys.modules``."""
    module = sys.modules.get(FLAPACK)
    if module is None:
        finder = FileFinder(str(folder), (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(FLAPACK)
        if spec is None:
            raise ImportError(f"no LAPACK extension _flapack in {folder}", name=FLAPACK)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[FLAPACK] = module
    return module


_flapack = load_flapack(Path(scipy.__file__).parent / "linalg")
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs
dsygvd, dsyevd, dsyevd_lwork = _flapack.dsygvd, _flapack.dsyevd, _flapack.dsyevd_lwork
