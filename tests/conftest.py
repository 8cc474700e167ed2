import pytest

from polkit import builtin_dataset_text, parse_dataset


@pytest.fixture(scope="session")
def golden_text() -> str:
    return builtin_dataset_text()


@pytest.fixture(scope="session")
def golden(golden_text):
    return parse_dataset(golden_text)
