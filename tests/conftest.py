import pytest

from skabelund import singer


@pytest.fixture
def expansions(monkeypatch) -> list:
    """The SingerSquare.expand calls made while a test runs, one entry each."""
    calls = []
    expand = singer.SingerSquare.expand

    def counting(self):
        calls.append(self)
        return expand(self)

    monkeypatch.setattr(singer.SingerSquare, "expand", counting)
    return calls
