"""Cell parity of this checkout's working tree against an earlier revision.

    python3 tools/parity.py PARENT_REV

Writes PARENT_REV's committed files to a temporary directory with `git
archive` (removed afterwards, also on failure; the repository's own worktree
list is left alone).  Then, for `verify --suite all --stable-output --payload`
and for each benchmark workload's argv at seed 7
(`perfbench/workloads.make(name, 7)`), with `--threads 1` appended, it runs
`tools/cellparity.py dump` once on PARENT_REV and once on this checkout, each
with PYTHONPATH at that checkout's src, and prints `tools/cellparity.py
compare` of the two dumps, after one line saying whether the two runs' stdout
is byte-identical.  It also runs each argv as given, on the default workers,
in both checkouts, and prints whether each run's stdout is byte-identical to
PARENT_REV's `--threads 1` run.  First it prints the line count of
src/moebius/*.py at PARENT_REV and in this checkout.  The exit status is 1 if
any compare exits non-zero, a dump wrote nothing or a default-worker run's
stdout differs, else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CELLPARITY = ROOT / "tools" / "cellparity.py"
SUITE = ["verify", "--suite", "all", "--stable-output", "--payload"]
SEED = 7


def _argvs() -> list[tuple[str, list[str]]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    runs = [("suite all", SUITE)]
    for name in workloads.WORKLOADS:
        argv, _ = workloads.make(name, SEED)
        runs.append((name, argv))
    return runs


def _dump(checkout: Path, out: Path, argv: list[str]) -> bytes:
    """Run `cellparity dump` against checkout's src; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, str(CELLPARITY), "dump", str(out), *argv],
                          cwd=checkout, env=env, stdout=subprocess.PIPE)
    return done.stdout


def checkout(rev: str, dest: Path) -> None:
    """Write revision rev's committed files to the new directory dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def source_lines(checkout: Path) -> int:
    """The lines of checkout's src/moebius/*.py."""
    return sum(len(f.read_text().splitlines()) for f in (checkout / "src" / "moebius").glob("*.py"))


def parity(parent_rev: str, tmp: Path) -> int:
    parent = tmp / "parent"
    checkout(parent_rev, parent)
    old, new = source_lines(parent), source_lines(ROOT)
    print(f"src/moebius lines: {old} at {parent_rev}, {new} here ({new - old:+d})", flush=True)
    bad = False
    for i, (name, argv) in enumerate(_argvs()):
        old, new = tmp / f"old{i}.json", tmp / f"new{i}.json"
        serial = [*argv, "--threads", "1"]
        print(f"== {name}: {' '.join(serial)}", flush=True)
        want = _dump(parent, old, serial)
        same = want == _dump(ROOT, new, serial)
        print(f"stdout {'byte-identical' if same else 'DIFFERS'}", flush=True)
        for side, tree in (("parent", parent), ("here", ROOT)):
            pooled = _dump(tree, tmp / f"pool{i}.json", argv) == want
            print(f"default workers ({side}): stdout {'byte-identical' if pooled else 'DIFFERS'}",
                  flush=True)
            bad |= not pooled
        if not (old.exists() and new.exists()):
            print("a dump wrote nothing", flush=True)
            bad = True
            continue
        rc = subprocess.run([sys.executable, str(CELLPARITY), "compare", str(old), str(new)])
        bad |= rc.returncode != 0
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    tmp = Path(tempfile.mkdtemp(prefix="parity-"))
    try:
        return parity(argv[0], tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
