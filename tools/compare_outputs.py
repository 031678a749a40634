"""Byte-for-byte comparison of every bundled config's outputs between a base
commit and the current checkout.

Run from the repository root:

    python3 tools/compare_outputs.py --base HEAD

The base commit's files are extracted with ``git archive`` into a temporary
directory, as ``tools/bench_pairs.py`` does.  Each file in the checkout's
``src/lakevortex/configs/`` is run in both trees, one process at a time, with
the command taken from the file name's first word (``solve``, ``sweep``,
``oracle``, ``hypotheses``, ``kernel``), with ``-v`` and BLAS on one thread.
The script compares each run's exit code, stdout, stderr and every output
file (so a new warning or log line differs too).  With ``-v`` each solve
writes one DEBUG line per fixed-point step to stderr (E, residual, mu,
support and candidate count), so every step is compared, not only the final
state; ``kernel-test`` and ``check-hypotheses`` log none.  It prints one
line per config with each run's peak RSS, lists the files that differ and
exits 1 if any does.  The peak RSS is the child's own ``ru_maxrss``, read
with ``os.wait4``, so it also covers the configs the benchmark does not run.
It also prints the line counts of ``src/lakevortex/*.py`` and of
``tests/*.py`` in both trees: code moved from the package into the tests is
not a reduction.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, THREAD_VARS, extract, git

CONFIGS = ROOT / "src" / "lakevortex" / "configs"
COMMANDS = {"solve": "solve", "sweep": "sweep", "oracle": "oracle-test",
            "hypotheses": "check-hypotheses", "kernel": "kernel-test"}


def run(tree: Path, config: Path, out: Path) -> tuple[dict, float]:
    """Run config's command with the package in tree: each output's bytes by
    name, and the exit code, stdout and stderr under their own names; and the
    run's peak RSS in MB.  stderr goes to a file, so a child that fills one
    pipe while the parent reads the other cannot deadlock."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(THREAD_VARS, "1"))
    command = COMMANDS[config.stem.split("_")[0]]
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "lakevortex.cli", command, "--config",
                                 str(config), "--out", str(out), "-v"], cwd=tree, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            stdout = proc.stdout.read()
        # wait4 reaps the child with its own resource usage; ru_maxrss is in KiB on Linux
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return ({"exit code": str(proc.returncode).encode(), "stdout": stdout, "stderr": stderr,
             **outputs},
            usage.ru_maxrss / 1024.0)


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
            base, base_mb = run(tmp / "base", config, tmp / "out" / "base" / config.stem)
            change, change_mb = run(ROOT, config, tmp / "out" / "change" / config.stem)
            names = sorted(set(base) | set(change))
            bad = [name for name in names if base.get(name) != change.get(name)]
            differ += [f"{config.name}: {name}" for name in bad]
            print(f"{config.name}: {len(names) - len(bad)} of {len(names)} match; peak RSS "
                  f"{base_mb:.1f} MB in the base, {change_mb:.1f} MB in the checkout", flush=True)
    for line in differ:
        print(f"differs: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
