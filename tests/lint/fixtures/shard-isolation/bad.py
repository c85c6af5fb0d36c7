"""Fixture: worker-scope code touching cross-shard state directly."""


class CrawlFrontier:
    def __init__(self) -> None:
        self.pending: list[str] = []
        self.shards: list[list[str]] = [[]]

    def push(self, url: str) -> None:
        self.pending.append(url)

    def _admit(self, url: str) -> None:
        self.push(url)


class ShardedFrontier(CrawlFrontier):
    def __init__(self) -> None:
        super().__init__()
        self.cross_links = 0

    def push(self, url: str) -> None:
        super().push(url)

    def note_link(self) -> None:
        self.cross_links += 1


class WorkerSlice:
    def __init__(self, index: int, shared: ShardedFrontier) -> None:
        self.index = index
        self.shared = shared

    def drain(self) -> None:
        # worker mutates shared state instead of calling the API
        self.shared.cross_links += 1
        # and reaches into the private half it inherits from the base
        self.shared._admit("u")


def run_worker(worker: WorkerSlice, frontier: ShardedFrontier) -> None:
    frontier.shards.pop()
