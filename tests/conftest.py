import pytest

from conformer import numerics as nm


def _retire_workers() -> None:
    """Stop this process's split workers: the next op that splits, or the next
    ``nm.thread_count()``, reads ``CONFORMER_THREADS`` again."""
    if nm._POOL is not None:
        n, tasks = nm._POOL
        for _ in range(n - 1):
            tasks.put(None)
        nm._POOL = None


@pytest.fixture(autouse=True)
def _own_workers():
    """Each test starts the workers its ``CONFORMER_THREADS`` asks for, and
    leaves none behind."""
    _retire_workers()
    yield
    _retire_workers()


@pytest.fixture
def threads(monkeypatch):
    """``use(value)`` sets ``CONFORMER_THREADS`` for the rest of the test."""
    def use(value) -> None:
        monkeypatch.setenv("CONFORMER_THREADS", str(value))
        _retire_workers()
    return use


@pytest.fixture
def force_split(monkeypatch, threads):
    """``force(workers)`` splits every op of two or more rows on axis 0 into
    ``workers`` slabs, whatever its size, until the test ends."""
    def force(workers: int) -> None:
        monkeypatch.setattr(nm, "_SPLIT_FLOOR", 0)
        threads(workers)
    return force


@pytest.fixture
def slabs(monkeypatch):
    """Records ``(work, slab count)`` for every op the test splits."""
    seen = []
    over_slabs = nm._over_slabs

    def spy(work, rows, k):
        seen.append((work.__qualname__, k))
        return over_slabs(work, rows, k)

    monkeypatch.setattr(nm, "_over_slabs", spy)
    return seen
