import numpy as np
import pytest
from hypothesis import settings

# every property runs the same derandomized examples, with no example database;
# each states only its max_examples
settings.register_profile("waterfallpose", deadline=None, derandomize=True, database=None)
settings.load_profile("waterfallpose")


@pytest.fixture
def rng():
    return np.random.default_rng(20240813)
