"""RL003 fixture: hot-path purity violations, reached transitively."""


class Accumulator:
    def __init__(self, cfg):
        self.cfg = cfg
        self._items = []

    @property
    def size(self):
        return len(self._items)

    # repro-lint: hot
    def add(self, batch):
        self._items.extend(batch)
        return self._tally(batch)

    def _tally(self, batch):
        total = self.size
        for item in batch:
            squares = [value * value for value in item.values]
            total += self.cfg.limit + self.cfg.cap + self.cfg.floor
            total += sum(squares)
        return total


# Exported, so RL006 counts them as used; last, so no asserted line moves.
__all__ = ["Accumulator"]
