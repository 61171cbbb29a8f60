"""Known-bad fixture: RS011 must fire on a loop-side eviction.

``DecayingTable.evict`` is the one way out of R and mutates the table,
so a coroutine in a server module that calls it races the engine
worker.
"""


class DecayingTable:
    def evict(self, rows, cause):
        return len(rows), cause


class BadEvictor:
    def __init__(self, table: DecayingTable):
        self.table = table

    async def handle(self, rows):
        self.table.evict(rows, "external")
