import pytest

from polkit import parse_dataset
from polkit.cli import builtin_dataset_text


@pytest.fixture(scope="session")
def golden_text() -> str:
    return builtin_dataset_text()


@pytest.fixture(scope="session")
def golden(golden_text):
    return parse_dataset(golden_text)
