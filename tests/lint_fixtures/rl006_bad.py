"""RL006 fixture: definitions nothing names, and the kinds RL006 exempts."""

__all__ = ["summary"]


def register(fn):
    """Stand-in for a registry decorator (search, use case, fault profile)."""
    return fn


def summary():
    return Ledger().balance()


def orphan_function():
    return 1


class Ledger:
    def balance(self):
        return 0.0

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
