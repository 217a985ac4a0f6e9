import numpy as np
import pytest

from rnndsl.randgen import GenConfig, generate_batch


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_architectures(n, seed=0, **cfg_overrides):
    """Admissible candidates drawn with the default generator settings."""
    cfg = GenConfig(seed=seed, **cfg_overrides)
    return generate_batch(cfg, n, rng=np.random.default_rng(seed))


def torn_cut(lines, k):
    """The first k lines of a store and the first half of line k + 1, as a
    crash in the middle of an append leaves them."""
    return b"".join(lines[:k]) + lines[k][: len(lines[k]) // 2]


def assert_resumes_at_every_cut(search, tmp_path):
    """``search(path)`` runs a search on the store at ``path`` and returns
    the number of records it trained. A fresh run writes N lines; the store
    cut at every k < N is resumed to the fresh bytes with exactly N - k
    records trained. Returns the fresh store's lines."""
    fresh = tmp_path / "fresh.jsonl"
    search(str(fresh))
    whole = fresh.read_bytes()
    lines = whole.splitlines(keepends=True)
    for k in range(len(lines)):
        path = tmp_path / f"cut{k}.jsonl"
        path.write_bytes(torn_cut(lines, k))
        trained = search(str(path))
        assert path.read_bytes() == whole, f"cut at line {k}"
        assert trained == len(lines) - k, f"cut at line {k}"
    return lines
