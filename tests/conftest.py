import pytest

from inputs import D23, corpus, worked_terms


@pytest.fixture(scope="session")
def dom():
    return D23


@pytest.fixture(scope="session")
def terms(dom):
    """The worked server example: formulas, systems, and hand-written enforcers."""
    return worked_terms()


@pytest.fixture(scope="session")
def corpus42():
    """The pairs `verify --corpus random:200:42` reads, the criterion-8 corpus."""
    return corpus(42)


def act(text):
    from enfkit.parsing import parse_label

    return parse_label(text)
