"""Put the benchmark package and the program sources on sys.path."""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
