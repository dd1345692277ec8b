"""Clean fixture: no invariant violations."""

__all__ = ["lookup"]

TABLE = {"alpha": 1}


def lookup(key, default=None):
    return TABLE.get(key, default)
