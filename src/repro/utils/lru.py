"""The bound shared by the per-process artifact memos.

:mod:`repro.stages` and the compiler's parse memo
(:mod:`repro.compiler.driver`) are least-recently-used memos that keep at
most :data:`MEMORY_CAP` entries each; :func:`touch` is their one lookup.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

#: entries each memo keeps.  Bounded: fuzzers create hundreds of distinct
#: programs per process, and each entry pins its artifacts
MEMORY_CAP = 32


def touch(memo: OrderedDict, key, make: Callable):
    """``memo[key]`` as most recently used, inserting ``make()`` on a miss."""
    value = memo.get(key)
    if value is not None:
        memo.move_to_end(key)
        return value
    value = memo[key] = make()
    while len(memo) > MEMORY_CAP:
        memo.popitem(last=False)
    return value
