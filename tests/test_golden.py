"""Golden output digests: the SHA-256 of every file the CLI writes on the
shipped configs, compared with ``tests/golden/outputs.sha256``.

A change that moves output bytes on purpose rewrites the digest file with

    PYTHONPATH=src python tests/test_golden.py

and the diff of that file shows which outputs moved. The digests hold
for the NumPy version and the platform recorded in the file's header;
on any other NumPy version or platform the test skips and names both.
"""

import contextlib
import hashlib
import io
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from riskcbf.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DIGESTS = Path(__file__).resolve().parent / "golden" / "outputs.sha256"

# (config stem, command and its flags): every output format of each command
RUNS = (
    ("field_default", ("field", "--format", "both")),
    ("field_default", ("audit",)),
    ("single_obstacle", ("simulate", "--format", "both")),
    ("single_obstacle", ("feasibility",)),
    ("multi_obstacle", ("simulate", "--format", "both")),
    ("multi_obstacle", ("feasibility",)),
)


def host() -> dict:
    """What the digests depend on besides the code: NumPy and the platform."""
    libc = "".join(platform.libc_ver())
    return {"numpy": np.__version__, "platform": "-".join(filter(None, (sys.platform, platform.machine(), libc)))}


def output_digests(root: Path) -> dict:
    """Run RUNS with their outputs under root; map each file written, by
    its path relative to root, to its SHA-256."""
    for config, (command, *flags) in RUNS:
        argv = [command, "--config", str(CONFIGS / f"{config}.cfg"), "--out", str(root / config / command), *flags]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def read_digests(path: Path) -> tuple[dict, dict]:
    """The header ``# key: value`` lines and the ``digest  path`` lines."""
    header, digests = {}, {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
        elif line:
            digest, _, name = line.partition("  ")
            digests[name] = digest
    return header, digests


def write_digests(path: Path) -> int:
    with tempfile.TemporaryDirectory() as root:
        digests = output_digests(Path(root))
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {key}: {value}" for key, value in host().items()]
    lines += [f"{digest}  {name}" for name, digest in digests.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(digests)


def test_outputs_match_golden_digests(tmp_path):
    header, golden = read_digests(DIGESTS)
    here = host()
    if header != here:
        pytest.skip(
            f"digests were written with NumPy {header.get('numpy')} on {header.get('platform')}; "
            f"this host runs NumPy {here['numpy']} on {here['platform']}"
        )
    actual = output_digests(tmp_path)
    moved = sorted(name for name in golden.keys() & actual.keys() if golden[name] != actual[name])
    missing = sorted(golden.keys() - actual.keys())
    new = sorted(actual.keys() - golden.keys())
    assert not (moved or missing or new), f"moved: {moved}; missing: {missing}; new: {new}"


if __name__ == "__main__":
    print(f"wrote {write_digests(DIGESTS)} digests to {DIGESTS}")
