"""Byte-for-byte comparison of every bundled config's outputs between a base
commit and the current checkout.

Run from the repository root:

    python3 tools/compare_outputs.py --base HEAD

The base commit's files are extracted with ``git archive`` into a temporary
directory, as ``tools/bench_pairs.py`` does.  Each file in the checkout's
``src/lakevortex/configs/`` is run in both trees, one process at a time, with
the command taken from the file name's first word (``solve``, ``sweep``,
``oracle``, ``hypotheses``, ``kernel``) and BLAS on one thread.  The script
compares each run's exit code, stdout and every output file, prints one line
per config, lists the files that differ and exits 1 if any does.  It also
prints the line counts of ``src/lakevortex/*.py`` and of ``tests/*.py`` in
both trees: code moved from the package into the tests is not a reduction.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, extract, git

CONFIGS = ROOT / "src" / "lakevortex" / "configs"
COMMANDS = {"solve": "solve", "sweep": "sweep", "oracle": "oracle-test",
            "hypotheses": "check-hypotheses", "kernel": "kernel-test"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run(tree: Path, config: Path, out: Path) -> dict:
    """Run config's command with the package in tree: each output's bytes by
    name, and the exit code and stdout under their own names."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(THREAD_VARS, "1"))
    command = COMMANDS[config.stem.split("_")[0]]
    proc = subprocess.run([sys.executable, "-m", "lakevortex.cli", command, "--config",
                           str(config), "--out", str(out)], cwd=tree, env=env, capture_output=True)
    outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout, **outputs}


def line_count(tree: Path, pattern: str) -> int:
    """Newlines in the files of tree matching pattern, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in tree.glob(pattern))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    args = parser.parse_args(argv)

    differ = []
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        extract(git("rev-parse", args.base), tmp / "base")
        for pattern in ("src/lakevortex/*.py", "tests/*.py"):
            print(f"{pattern}: {line_count(tmp / 'base', pattern)} lines in the base, "
                  f"{line_count(ROOT, pattern)} in the checkout", flush=True)
        for config in sorted(CONFIGS.glob("*.json")):
            base = run(tmp / "base", config, tmp / "out" / "base" / config.stem)
            change = run(ROOT, config, tmp / "out" / "change" / config.stem)
            names = sorted(set(base) | set(change))
            bad = [name for name in names if base.get(name) != change.get(name)]
            differ += [f"{config.name}: {name}" for name in bad]
            print(f"{config.name}: {len(names) - len(bad)} of {len(names)} match", flush=True)
    for line in differ:
        print(f"differs: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
