from pathlib import Path

import pytest
from hypothesis import settings

DATA_DIR = Path(__file__).parent / "data"

# Every run executes the same examples: no randomness, no example database.
# Per-test @settings still choose max_examples and deadline.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def cv_registry_path():
    """Bundled 22-language Common Voice v18 registry."""
    return DATA_DIR / "cv18_registry.csv"


@pytest.fixture
def toy_dir():
    return DATA_DIR / "toy"
