"""Golden output digests: the SHA-256 of every file the CLI writes on the
shipped configs, compared with ``tests/golden/outputs.sha256``, and of
every log's ``records.tobytes()`` in the lane cases no shipped config
covers (a single integrator, no obstacles, a t_max cutoff), compared
with ``tests/golden/lane_records.sha256``. That file also pins the
records and the ``SimLog.to_csv`` text of the seeded crossing layouts
0-3 under CROWD_SPECS, whose ER, CVaR and CPT logs all differ.

A change that moves output bytes on purpose rewrites both digest files with

    PYTHONPATH=src python tests/test_golden.py

and the diff of those files shows which outputs moved. The digests hold
for the NumPy version and the platform recorded in each file's header;
on any other NumPy version or platform the tests skip and name both.
The header also records the CPU features NumPy's loops were built for
and dispatched to (its ``exp`` and ``power`` loops round by them), and a
digest mismatch names those of the header and of this host.
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
from riskcbf.sim import simulate
from shipped import CONFIGS, CROWD_SPECS, crossing_layout, lane_case

DIGESTS = Path(__file__).resolve().parent / "golden" / "outputs.sha256"
LANE_DIGESTS = DIGESTS.with_name("lane_records.sha256")
LANE_CASES = ("single_integrator", "no_obstacles", "t_max_cutoff")
CROSSING_SEEDS = range(4)

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


def numpy_cpu() -> str:
    """NumPy's baseline CPU features and, after a semicolon, the dispatch
    targets this host supports."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    dispatched = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return f"{' '.join(umath.__cpu_baseline__)}; {' '.join(dispatched)}"


def cpu_note(header: dict) -> str:
    """The NumPy CPU features of a digest header and of this host, for a
    failure message."""
    return f"the digests were written on NumPy CPU features {header.get('numpy_cpu')}, this host has {numpy_cpu()}"


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


def lane_digests(root: Path) -> dict:
    """Map each log of the LANE_CASES runs, by case and label, to the
    SHA-256 of its records.tobytes(); and each log of the crossing
    layouts of CROSSING_SEEDS, as crossing<seed>/<label>, to that digest
    and, with ".csv" added, to the SHA-256 of the to_csv file that it
    writes under root by that name."""
    digests = {f"{name}/{log.label}": hashlib.sha256(log.records.tobytes()).hexdigest()
               for name in LANE_CASES for log in simulate(*lane_case(name))}
    for seed in CROSSING_SEEDS:
        (root / f"crossing{seed}").mkdir(parents=True, exist_ok=True)
        for log in simulate(crossing_layout(seed), CROWD_SPECS):
            name = f"crossing{seed}/{log.label}"
            log.to_csv(root / f"{name}.csv")
            digests[name] = hashlib.sha256(log.records.tobytes()).hexdigest()
            digests[f"{name}.csv"] = hashlib.sha256((root / f"{name}.csv").read_bytes()).hexdigest()
    return digests


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


def write_digests(path: Path, digests: dict) -> int:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {key}: {value}" for key, value in {**host(), "numpy_cpu": numpy_cpu()}.items()]
    lines += [f"{digest}  {name}" for name, digest in digests.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(digests)


def golden_or_skip(path: Path) -> tuple[dict, dict]:
    """The header and digests of path, or skip when they were written
    with another NumPy version or on another platform."""
    header, golden = read_digests(path)
    here = host()
    if {key: header.get(key) for key in here} != here:
        pytest.skip(
            f"digests were written with NumPy {header.get('numpy')} on {header.get('platform')}; "
            f"this host runs NumPy {here['numpy']} on {here['platform']}"
        )
    return header, golden


def assert_same_digests(header: dict, golden: dict, actual: dict) -> None:
    moved = sorted(name for name in golden.keys() & actual.keys() if golden[name] != actual[name])
    missing = sorted(golden.keys() - actual.keys())
    new = sorted(actual.keys() - golden.keys())
    assert not (moved or missing or new), f"moved: {moved}; missing: {missing}; new: {new}; {cpu_note(header)}"


def test_outputs_match_golden_digests(tmp_path):
    header, golden = golden_or_skip(DIGESTS)
    assert_same_digests(header, golden, output_digests(tmp_path))


def test_lane_records_match_golden_digests(tmp_path):
    header, golden = golden_or_skip(LANE_DIGESTS)
    assert_same_digests(header, golden, lane_digests(tmp_path))


def test_a_moved_digest_names_the_cpu_features_of_both_hosts():
    header = {**host(), "numpy_cpu": "X86_V2; X86_V3"}
    with pytest.raises(AssertionError) as err:
        assert_same_digests(header, {"a.csv": "0" * 64}, {"a.csv": "1" * 64})
    assert "moved: ['a.csv']" in str(err.value)
    assert f"CPU features X86_V2; X86_V3, this host has {numpy_cpu()}" in str(err.value)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        print(f"wrote {write_digests(DIGESTS, output_digests(Path(root) / 'outputs'))} digests to {DIGESTS}")
        print(f"wrote {write_digests(LANE_DIGESTS, lane_digests(Path(root) / 'lanes'))} digests to {LANE_DIGESTS}")
