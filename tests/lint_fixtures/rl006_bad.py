"""RL006 fixture: definitions and imports nothing uses, and the kinds RL006 exempts."""

from __future__ import annotations

import os.path
from json import dumps as encode
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from decimal import Decimal

__all__ = ["summary", "encode"]


def register(fn):
    """Stand-in for a registry decorator (search, use case, fault profile)."""
    return fn


def summary():
    return Ledger().balance()


def orphan_function():
    return 1


class Ledger:
    entries: List[float] = []

    def balance(self) -> "Optional[Decimal]":
        return None

    def orphan_method(self):
        return None


@register
def registered_probe():
    return 2


def _cmd_fixture_ping():
    return {"pong": True}


# Kept for a reason a pragma states.
def kept_by_pragma():  # repro-lint: disable=RL006
    return 3
