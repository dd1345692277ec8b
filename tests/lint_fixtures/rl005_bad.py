"""RL005 fixture: journal/wire serialization hazards."""

import json


def persist(journal, shard, seq):
    journal.append_record(shard, seq, {"tags": {"a", "b"}})
    journal.append_record(shard, seq, ("host", 1))
    return json.dumps({"blob": b"raw", 7: "seven"})


# Exported, so RL006 counts them as used; last, so no asserted line moves.
__all__ = ["persist"]
