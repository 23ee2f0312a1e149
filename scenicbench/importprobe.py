"""Time importing the library and loading the workload worlds, in this fresh interpreter.

``run.py`` starts this script a few times per run, from the root of a
checkout, and reads the last line of its output: the seconds the imports
took, scaled to reference speed (see ``run.speed_factor``).
"""

import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(BENCH_DIR))

from run import speed_factor  # noqa: E402  (the standard library only)

before = speed_factor()[0]
start = time.perf_counter()
import workloads  # noqa: E402  (imports the library)
from repro.worlds.registry import load_world  # noqa: E402

for world in workloads.WORLDS:
    load_world(world)
elapsed = time.perf_counter() - start
print(elapsed * (before + speed_factor()[0]) / 2)
