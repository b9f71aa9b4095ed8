"""Count how often the analyzer builds its artifacts.

:func:`count_calls` wraps a function (``ast.parse``, ``build_cfg``, a
class such as ``FileResolver``) at every module binding of it, so calls
through ``from x import f`` aliases are counted as well.  The tests and
``benchmarks/bench_check.py`` use it to prove that a cold run parses
each file once and builds each function's CFG once.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Any, Callable, Iterator, List, Tuple

__all__ = ["count_calls"]


@contextlib.contextmanager
def count_calls(*targets: Callable[..., Any]) -> Iterator[List[List[int]]]:
    """Yield one list per target; each call through any module binding
    of that target appends ``id`` of its first argument while the block
    runs (ids only, so the arguments are not kept alive).

    Import the code under test before entering: a module first imported
    inside the block would bind the counting wrapper for good.
    """
    seen: List[List[int]] = [[] for _ in targets]
    patched: List[Tuple[Any, str, Callable[..., Any]]] = []
    for target, calls in zip(targets, seen):
        def counting(*args: Any, _target: Callable[..., Any] = target,
                     _calls: List[int] = calls, **kwargs: Any) -> Any:
            _calls.append(id(args[0]) if args else 0)
            return _target(*args, **kwargs)

        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None) or {}
            for attr, value in list(namespace.items()):
                if value is target:
                    setattr(module, attr, counting)
                    patched.append((module, attr, target))
    try:
        yield seen
    finally:
        for module, attr, target in patched:
            setattr(module, attr, target)
