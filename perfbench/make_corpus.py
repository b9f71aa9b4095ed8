"""Freeze the ``check_corpus`` input: ``python3 perfbench/make_corpus.py``.

Packs every ``.py`` file under the analyzer, simulator-core and
analysis packages (``src/repro/{check,sim,analysis}``) plus one
seeded-defect file per rule family (RC1xx-RC6xx) into
``perfbench/corpus.tar.gz``.  The subset keeps a cold check near 3.5 s
on two CPUs, so a run can take the median of several passes.  The
archive is deterministic (sorted members, zero mtimes and owners), so
re-running it on an unchanged tree gives the same bytes.  The defects are taken from the bad fixtures of
``tests/test_check*.py``; without them the pinned findings would be
empty and an analyzer that reports nothing would pass.

Re-freezing changes the benchmark's input: do it only in a change that
redefines the benchmark, then refresh the pins with ``run.py --pin``.
"""

from __future__ import annotations

import gzip
import io
import pathlib
import tarfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
ARCHIVE = HERE / "corpus.tar.gz"
TREES = ("src/repro/check", "src/repro/sim", "src/repro/analysis")

#: Corpus-relative path -> source.  Paths under ``repro/sim/`` sit in
#: the simulator scope, so the sim-only rules fire there.
DEFECTS = {
    "src/repro/sim/defect_rc1xx.py": (
        "import random\n"
        "import time\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return time.time() + random.random()\n"
    ),
    "src/repro/analysis/defect_rc2xx.py": (
        "def swallow():\n"
        "    try:\n"
        "        x = 1\n"
        "    except:\n"
        "        x = 0\n"
        "    return x\n"
    ),
    "src/repro/analysis/defect_rc3xx.py": (
        "def collect(item, bucket=[]):\n"
        "    bucket.append(item)\n"
        "    return bucket\n"
    ),
    "src/repro/sim/defect_rc4xx.py": (
        "from repro.hdf5 import EventSet\n"
        "\n"
        "\n"
        "def prog(ctx, lib, vol):\n"
        "    es = EventSet(ctx.engine)\n"
        "    es.add(ctx.engine.event())\n"
        "    return ctx.now\n"
    ),
    "src/repro/analysis/defect_rc5xx.py": (
        "def total(t_comp, nbytes):\n"
        "    return t_comp + nbytes\n"
    ),
    "src/repro/sim/defect_rc6xx.py": (
        "from repro.sim import Semaphore\n"
        "\n"
        "\n"
        "class Pair:\n"
        "    def __init__(self, engine):\n"
        "        self._a = Semaphore(engine, 1)\n"
        "        self._b = Semaphore(engine, 1)\n"
        "\n"
        "    def m1(self):\n"
        "        yield self._a.acquire()\n"
        "        yield from self._grab_b()\n"
        "        self._b.release()\n"
        "        self._a.release()\n"
        "\n"
        "    def m2(self):\n"
        "        yield self._b.acquire()\n"
        "        yield self._a.acquire()\n"
        "        self._a.release()\n"
        "        self._b.release()\n"
        "\n"
        "    def _grab_b(self):\n"
        "        yield self._b.acquire()\n"
    ),
}


def corpus_files() -> dict:
    files = {}
    for top in TREES:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "__pycache__" not in path.parts:
                rel = path.relative_to(ROOT).as_posix()
                files[rel] = path.read_bytes()
    for rel, text in DEFECTS.items():
        files[rel] = text.encode("utf-8")
    return files


def main() -> None:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.PAX_FORMAT) as tar:
        for rel, data in sorted(corpus_files().items()):
            info = tarfile.TarInfo(rel)
            info.size = len(data)
            info.mode = 0o644
            tar.addfile(info, io.BytesIO(data))
    with open(ARCHIVE, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0,
                           filename="") as gz:
            gz.write(buf.getvalue())
    print(f"wrote {ARCHIVE.relative_to(ROOT)} "
          f"({ARCHIVE.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
