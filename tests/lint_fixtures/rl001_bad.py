"""RL001 fixture: deliberate wall-clock and global-RNG violations."""

import random
import time
from datetime import datetime

import numpy as np


def stamp():
    return time.time()


def pick(options):
    when = datetime.now()
    return random.choice(options), when


def jitter():
    return np.random.normal()


# Exported, so RL006 counts them as used; last, so no asserted line moves.
__all__ = ["stamp", "pick", "jitter"]
