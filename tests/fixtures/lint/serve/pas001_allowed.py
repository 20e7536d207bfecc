"""PAS001 fixture: wall clock inside the sanctioned serve/ scope (clean).

The real-time gateway paces the engine against wall time; the scoped
config allows it here.
"""

import time


def time_run(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
