import pytest

import loopfock.rep


@pytest.fixture
def plant_second_half(monkeypatch):
    """A function that plants a stack as the second-half generators:
    rep.half_generators returns it for 'second' and stays honest for
    'first'."""
    honest = loopfock.rep.half_generators

    def plant(stack):
        monkeypatch.setattr(loopfock.rep, "half_generators",
                            lambda model, which: stack if which == "second" else honest(model, which))
    return plant
