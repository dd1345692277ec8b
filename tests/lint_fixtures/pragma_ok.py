"""Pragma fixture: real violations neutralised by suppressions."""
# repro-lint: disable-file=RL004

import time

registry = {}


def stamp():
    return time.time()  # repro-lint: disable=RL001


# Exported, so RL006 counts them as used; last, so no asserted line moves.
__all__ = ["stamp"]
