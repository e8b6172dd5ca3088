"""One cold compiler start-up, as the ``plan-cold`` set-up times it.

Imports the package, opens a compiler session (which parses the
start-up template file) and runs the toolchain probes every first
build pays — C compiler, OpenMP, OpenMP SIMD, in-process JIT — against
the fresh ``SPL_BUILD_DIR`` it is given, then exits.  Run by
``perfbench/run.py``; by hand:
``SPL_BUILD_DIR=$(mktemp -d) PYTHONPATH=src python3 perfbench/session.py``.
"""

from __future__ import annotations

from repro.core.compiler import CompilerOptions, SplCompiler
from repro.perfeval import ccompile, jit

SplCompiler(CompilerOptions(codetype="real", unroll_threshold=16))
ccompile.have_c_compiler()
ccompile.have_openmp()
ccompile.have_openmp_simd()
jit.jit_supported()
