"""Clean fixture: sanctioned module-state containers in pir."""

import threading
import weakref
from contextvars import ContextVar

_PRIMES = (2, 3, 5, 7)
_ACTIVE: ContextVar = ContextVar("active", default=None)
_SHARED = weakref.WeakKeyDictionary()
_SHARED_LOCK = threading.Lock()


def remember(key, value):
    with _SHARED_LOCK:
        _SHARED[key] = value

