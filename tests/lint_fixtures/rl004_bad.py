"""RL004 fixture: fork-safety violations."""

cache = {}
LIMITS = {"default": 4}
_counter = 0


def remember(key, value):
    cache[key] = value


def bump():
    global _counter
    _counter += 1


def widen(name):
    LIMITS[name] = 99


# Exported, so RL006 counts them as used; last, so no asserted line moves.
__all__ = ["remember", "bump", "widen"]
