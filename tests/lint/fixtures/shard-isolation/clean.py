"""Fixture: workers stay on their slice and use the public APIs."""


class FrontierShard:
    def __init__(self) -> None:
        self.enqueued = 0

    def __len__(self) -> int:
        return self.enqueued


class CrawlFrontier:
    def __init__(self) -> None:
        self.shards: list[FrontierShard] = [FrontierShard()]

    def push(self, url: str) -> None:
        self._admit(self.shards[0])

    def _admit(self, shard: FrontierShard) -> None:
        shard.enqueued += 1


class ShardedFrontier(CrawlFrontier):
    def __init__(self) -> None:
        super().__init__()
        self.cross_links = 0

    def push(self, url: str) -> None:
        # the routing API is the sanctioned cross-shard entry point
        super().push(url)

    def note_link(self) -> None:
        self.cross_links += 1


class WorkerSlice:
    def __init__(self, shard: FrontierShard, shared: ShardedFrontier) -> None:
        self.shard = shard
        self.shared = shared

    def drain(self) -> int:
        self.shared.push("remote")
        self.shared.note_link()
        return len(self.shard)
